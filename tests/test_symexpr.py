"""Expression trees: evaluation, differentiation, intervals, serialization."""

import math
import sys
from functools import partial

import numpy as np
import pytest

from barricade import certify, cli, dsat, lpgen, plant, simulate, train
from barricade import network as nn
from barricade import symexpr as sx


def _rand_expr(rng, depth, arity=2):
    """Random expression avoiding div (singularities) for fuzz tests."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return sx.var(int(rng.integers(arity)))
        return sx.const(float(rng.uniform(-2.0, 2.0)))
    op = rng.choice(["add", "sub", "mul", "neg", "sin", "cos", "tanh",
                     "pow", "exp"])
    a = _rand_expr(rng, depth - 1, arity)
    if op == "pow":
        return sx.pow_(a, int(rng.integers(0, 4)))
    if op in ("neg", "sin", "cos", "tanh"):
        return getattr(sx, op)(a)
    if op == "exp":
        # keep arguments tame so exp stays finite
        return sx.exp(sx.mul(sx.const(0.1), a))
    b = _rand_expr(rng, depth - 1, arity)
    return getattr(sx, op)(a, b)


def _assert_within_ulps(got, ref, ulps=8):
    assert abs(got - ref) <= ulps * np.spacing(max(abs(ref), 1.0))


class TestEval:
    def test_sin_zero(self):
        assert sx.eval_expr(sx.sin(sx.var(0)), [0.0]) == 0.0

    def test_tanh_reference(self):
        # reference value via mpmath when available, else math.tanh
        got = sx.eval_expr(sx.tanh(sx.var(0)), [1.0])
        try:
            import mpmath
            ref = float(mpmath.tanh(mpmath.mpf(1)))
        except ImportError:
            ref = math.tanh(1.0)
        assert abs(got - ref) < 1e-12

    def test_speed_sin(self):
        e = sx.mul(sx.const(1.0), sx.sin(sx.var(1)))
        assert abs(sx.eval_expr(e, [0.0, 0.2]) - 0.1986693308) < 1e-9

    def test_division_by_zero(self):
        with pytest.raises(sx.EvalError):
            sx.eval_expr(sx.div(sx.const(1.0), sx.var(0)), [0.0])

    def test_compile_on_arrays_matches_eval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e = _rand_expr(rng, 4)
            p = rng.uniform(-2, 2, size=(2, 5))
            got = np.broadcast_to(sx.compile_expr(e)(p), (5,))
            for b in range(5):
                _assert_within_ulps(got[b], sx.eval_expr(e, p[:, b]))

    def test_compile_widened_closed_loop(self):
        # one network sum is nested 200 deep
        net = train.widen_controller(nn.load(cli.bundled_controller_path(100)),
                                     200, seed=0)
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        xs = np.random.default_rng(9).uniform(-1.0, 1.0, size=(2, 8))
        got = [sx.compile_expr(c)(xs) for c in field.components]
        for b in range(xs.shape[1]):
            ref = field.eval_at(list(xs[:, b]))
            for g, r in zip(got, ref):
                _assert_within_ulps(g[b], r)


class TestDiff:
    def test_square(self):
        d = sx.diff(sx.pow_(sx.var(0), 2), 0)
        assert sx.eval_expr(d, [3.0]) == 6.0

    def test_tanh_derivative_form(self):
        d = sx.diff(sx.tanh(sx.var(0)), 0)
        v = 0.7
        assert abs(sx.eval_expr(d, [v]) - (1 - math.tanh(v) ** 2)) < 1e-15

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(400):
            e = _rand_expr(rng, 5)
            p = rng.uniform(-1.5, 1.5, size=2)
            for i in range(2):
                d = sx.diff(e, i)
                h = 1e-6
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                fd = (sx.eval_expr(e, pp) - sx.eval_expr(e, pm)) / (2 * h)
                an = sx.eval_expr(d, p)
                if abs(fd) < 1e-3:
                    continue  # relative comparison meaningless near zero
                assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))
                checked += 1
        assert checked > 200


class TestInterval:
    def test_sin_on_half_period(self):
        iv = sx.interval_eval(sx.sin(sx.var(0)), sx.box((0.0, math.pi)))
        assert iv.lo <= 0.0 <= iv.hi
        assert iv.hi >= 1.0
        assert iv.hi < 1.0 + 1e-12 and iv.lo > -1e-12

    def test_even_power(self):
        iv = sx.interval_eval(sx.pow_(sx.var(0), 2), sx.box((-2.0, 1.0)))
        assert iv.lo <= 0.0 and abs(iv.lo) < 1e-12
        assert 4.0 <= iv.hi < 4.0 + 1e-12

    def test_trig_argument_limit(self):
        big = sx.box((2.0e6, 3.0e6))
        with pytest.raises(sx.EvalError):
            sx.interval_eval(sx.sin(sx.var(0)), big)

    def test_division_through_zero_is_whole_line(self):
        iv = sx.interval_eval(sx.div(sx.const(1.0), sx.var(0)),
                              sx.box((-1.0, 1.0)))
        assert iv.lo == -math.inf and iv.hi == math.inf

    def test_inf_over_inf_is_whole_line(self):
        q = sx.div(sx.sub(sx.const(1.0), sx.exp(sx.var(0))),
                   sx.neg(sx.exp(sx.var(1))))
        iv = sx.interval_eval(q, sx.box((700.0, 800.0), (700.0, 800.0)))
        assert iv.lo == -math.inf and iv.hi == math.inf


_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300,
             sys.float_info.max, -sys.float_info.max, math.inf, -math.inf)


def _extreme_intervals():
    """Every (lo, hi) pair of _EXTREMES that Interval accepts."""
    out = []
    for lo in _EXTREMES:
        for hi in _EXTREMES:
            try:
                sx.Interval(lo, hi)
            except ValueError:
                continue
            out.append((lo, hi))
    return out


class TestExtremeEndpoints:
    def test_degenerate_infinite_intervals_rejected(self):
        for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
            with pytest.raises(ValueError):
                sx.Interval(lo, hi)
        with pytest.raises(ValueError):
            sx.box((-math.inf, -math.inf), (-math.inf, math.inf))
        assert sx.Interval(-math.inf, math.inf).width == math.inf
        assert sx.Interval(-math.inf, -1e308).hi == -1e308

    def test_midpoint_near_float_max(self):
        # lo + hi overflows
        bx = sx.box((1.6e308, 1.7e308))
        mid = bx.midpoint()
        assert math.isfinite(mid[0]) and bx.contains(mid)

    def test_kernels_on_extreme_endpoints(self):
        ivs = _extreme_intervals()
        cases = []
        for name, fn in sx._KERNELS.items():
            if name in ("add", "sub", "mul", "div"):
                cases += [(name, fn, (a, b)) for a in ivs for b in ivs]
            else:
                cases += [(name, fn, (a,)) for a in ivs]
        for n in (2, 3):
            cases += [("pow", partial(sx._ipow, n=n), (a,)) for a in ivs]
        for name, fn, args in cases:
            try:
                lo, hi = fn(*args)
            except sx.EvalError:
                assert name in ("sin", "cos"), (name, args)
                continue
            assert lo == lo and hi == hi and lo <= hi, (name, args, lo, hi)
        assert len(cases) > 20000

    def test_prune_on_extreme_boxes(self):
        x, y = sx.var(0), sx.var(1)
        formulas = [dsat.Formula(2, dsat.Constraint(lhs, rel, rhs))
                    for lhs, rel, rhs in ((sx.add(x, y), "<=", 0.0),
                                          (sx.sub(x, y), ">=", 0.0),
                                          (sx.mul(x, y), "<=", 1.0),
                                          (sx.neg(x), ">=", 0.0),
                                          (sx.div(x, y), "<=", 0.0),
                                          (sx.div(x, y), ">=", 1.0))]
        queries = [dsat._Query(phi) for phi in formulas]
        ivs = _extreme_intervals()
        for a in ivs:
            for b in ivs:
                bx = (a, b)
                for query in queries:
                    out = dsat.prune(query, list(bx))
                    assert out is dsat.EMPTY or all(
                        i[0] <= o[0] and o[1] <= i[1]
                        for o, i in zip(out[0], bx)), (bx, out)


def _chain(depth=3000):
    """var(0) + 1 + 1 + ..., nested far deeper than the recursion limit."""
    e = sx.var(0)
    for _ in range(depth):
        e = sx.add(e, sx.const(1.0))
    return e


class TestTape:
    def test_lowering_is_iterative_and_merges_shared_subterms(self):
        # far deeper than the interpreter's recursion limit
        e = sx.var(0)
        for _ in range(3000):
            e = sx.add(e, sx.const(1.0))
        iv = sx.interval_eval(e, sx.box((0.0, 1.0)))
        assert iv.lo <= 3000.0 and 3001.0 <= iv.hi
        assert iv.hi - iv.lo < 1.0 + 1e-8  # one ulp out per add
        got = sx.compile_expr(e)([np.array([0.0, 0.5, 1.0])])
        assert got.tolist() == [3000.0, 3000.5, 3001.0]

        net = nn.load(cli.bundled_controller_path(10))
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        cand = lpgen.candidate_from([1.0, 0.1, 1.0, 0.0, 0.0, 0.0],
                                    lpgen.QuadraticTemplate(2))
        lie = certify.lie_derivative(cand, field)
        nodes = {}
        stack = [lie]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(node.args)
        assert len(sx.lower(lie).nodes) < len(nodes)

    @pytest.mark.parametrize("walk", [
        lambda e: sx.arity(e) == 1,
        lambda e: sx.arity(sx.substitute(e, {0: sx.var(1)})) == 2,
        lambda e: sx.compile_expr(sx.diff(sx.mul(e, e), 0))(
            [np.array([0.5])]).tolist() == [6001.0],
        lambda e: sx.to_sexpr(e) == ("(add " * 3000 + "(var 0)"
                                     + " (const 1.0))" * 3000),
        lambda e: e == _chain() and e != sx.add(_chain(2999), sx.const(2.0)),
        lambda e: hash(e) == hash(_chain()),
        lambda e: repr(e).startswith("Expr(" + "(add " * 3000),
    ], ids=["arity", "substitute", "diff", "to_sexpr", "eq",
            "hash", "repr"])
    def test_walks_are_iterative(self, walk):
        assert walk(_chain())

    def test_thousand_neuron_closed_loop(self):
        net = train.widen_controller(nn.load(cli.bundled_controller_path(100)),
                                     1000, seed=0)
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        traces = simulate.simulate_batch(field, [[0.1, 0.05], [-0.2, 0.1]],
                                         10.0, 0.01)
        for tr in traces:
            assert len(tr) == 1001 and np.isfinite(tr.states).all()
        cand = lpgen.candidate_from([1.0, 0.1, 1.0, 0.0, 0.0, 0.0],
                                    lpgen.QuadraticTemplate(2))
        lie = certify.lie_derivative(cand, field)
        text = sx.to_sexpr(lie)
        assert text.startswith("(add ") and text.count("(") == text.count(")")


class TestSexpr:
    def test_documented_form(self):
        e = sx.add(sx.mul(sx.const(2.0), sx.var(0)), sx.sin(sx.var(1)))
        text = sx.to_sexpr(e)
        assert text.startswith("(add (mul (const 2") and "(sin (var 1))" in text


class TestSubstitute:
    def test_replaces_variable(self):
        e = sx.add(sx.var(0), sx.var(1))
        out = sx.substitute(e, {1: sx.sin(sx.var(0))})
        assert sx.eval_expr(out, [0.5]) == 0.5 + math.sin(0.5)
