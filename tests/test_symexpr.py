"""Expression trees: evaluation, differentiation, intervals, serialization."""

import dis
import math
import re
import struct
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from barricade import certify, cli, dsat, lpgen, plant, simulate, train
from barricade import interval as iv
from barricade import network as nn
from barricade import symexpr as sx
from test_dsat import _prune_rounds


_OPS = ("add", "sub", "mul", "neg", "sin", "cos", "tanh", "pow", "exp")


def _rand_expr(rng, depth, arity=2):
    """Random expression avoiding div (singularities) for fuzz tests."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return sx.var(int(rng.integers(arity)))
        return sx.const(float(rng.uniform(-2.0, 2.0)))
    # the draw rng.choice(_OPS) makes, without its list conversion
    op = _OPS[rng.integers(len(_OPS))]
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
        for name, fn in iv._KERNELS.items():
            if name in ("add", "sub", "mul", "div"):
                cases += [(name, fn, (a, b)) for a in ivs for b in ivs]
            else:
                cases += [(name, fn, (a,)) for a in ivs]
        for n in (2, 3):
            cases += [("pow", partial(iv._ipow, n=n), (a,)) for a in ivs]
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
        queries = [dsat._atoms(phi.root) for phi in formulas]
        ivs = _extreme_intervals()
        pairs = [(a, b) for a in ivs for b in ivs]
        before = np.array(pairs).transpose(1, 2, 0)
        for query in queries:
            boxes = before.copy()
            kept = _prune_rounds(query, boxes) != dsat.FALSE
            inside = ((before[:, 0] <= boxes[:, 0])
                      & (boxes[:, 1] <= before[:, 1])).all(axis=0)
            assert inside[kept].all(), [pairs[i] for i in
                                        np.flatnonzero(kept & ~inside)]


def _scalar_net(layers, ins):
    """One box's network pass in the scalar layout: its input rows
    (lo, hi), one (2, k) product per layer, the activation per endpoint
    with the scalar kernels; one (lo, hi) pair per output."""
    v = np.array(ins).T
    for at, rmax, bmax, c, c_eta, tail, act in layers:
        if tail is None:
            e, ok = iv._error_bound(rmax * float(np.abs(v).max()) + bmax, c,
                                    c_eta)
            tail = np.array(((1.0, -e), (1.0, e))) if ok else None
        if tail is None:
            z = np.array([[-math.inf], [math.inf]]).repeat(at.shape[1], 1)
        else:
            z = np.concatenate((v, v[::-1], tail), axis=1) @ at
        if act == "tanh":
            v = np.vectorize(math.tanh)(z) + np.array([[-2.0 ** -51],
                                                       [2.0 ** -51]])
            v = np.minimum(np.maximum(v, -1.0), 1.0)
        elif act == "sigmoid":
            v = np.array(([iv._isigmoid((a, a))[0] for a in z[0]],
                          [iv._isigmoid((a, a))[1] for a in z[1]]))
            v = np.minimum(np.maximum(v, 0.0), 1.0)
        else:
            v = z
    return list(zip(*v.tolist()))


def _scalar_slots(tape, pairs):
    """Every slot's enclosure on one box of (lo, hi) pairs, slot by slot
    with the scalar kernels; up to the slot whose kernel raises EvalError,
    and whether one did."""
    vals = []
    for op, val, idx, kids in tape.nodes:
        args = [vals[k] for k in kids]
        if op == "const":
            vals.append((val[0], val[0]))
        elif op == "var":
            vals.append(pairs[idx])
        elif op == "pow":
            vals.append(iv._ipow(args[0], val))
        elif op == "net":
            vals.append(_scalar_net(iv._net_layers(val), args))
        elif op == "row":
            vals.append(args[0][val])
        else:
            try:
                vals.append(iv._KERNELS[op](*args))
            except sx.EvalError:
                return vals, True
    return vals, False


def _bits(x):
    return struct.pack("d", x)


def _batched_slot(vals, slot, col):
    v = vals[slot]
    if v.ndim == 3:     # a network's outputs, (m, 2, B)
        return [(o[0][col], o[1][col]) for o in v.tolist()]
    return tuple(row[col if len(row) > 1 else 0] for row in v.tolist())


def _same_slot_bits(got, want):
    if isinstance(want, list):
        return len(got) == len(want) and all(
            _same_slot_bits(g, w) for g, w in zip(got, want))
    return [_bits(x) for x in got] == [_bits(x) for x in want]


def _enclosure_cases():
    """(expression, boxes): random trees (with div, sigmoid and exp
    overflow besides), small networks and the bundled 100-neuron
    controller, each on criterion 06's boxes and on boxes of extreme
    endpoints, 64 boxes per expression."""
    rng = np.random.default_rng(606)
    x, y = sx.var(0), sx.var(1)
    exprs = [_rand_expr(rng, 4) for _ in range(150)]
    exprs += [sx.div(x, y), sx.div(sx.sin(x), sx.add(y, sx.const(0.5))),
              sx.exp(sx.mul(sx.const(400.0), x)), sx.pow_(x, 3),
              sx.sub(sx.pow_(x, 2), sx.pow_(y, 4)),
              sx.cos(sx.mul(sx.const(1e6), y))]
    for acts in (("tanh", "identity"), ("sigmoid", "tanh"),
                 ("identity", "sigmoid")):
        net = _layered_net(rng, (2, 5, 2), acts)
        exprs.append(sx.add(sx.net(net, 0, (x, y)),
                            sx.mul(sx.net(net, 1, (x, y)), y)))
    # a product of 202 terms per row, where a flat GEMM may add in
    # another order than one product per box
    exprs.append(sx.net(nn.load(cli.bundled_controller_path(100)), 0, (x, y)))
    extremes = _extreme_intervals()
    for e in exprs:
        boxes = []
        for _ in range(32):
            lo = rng.uniform(-2.0, 2.0, size=2)
            hi = lo + rng.uniform(0.0, 2.0, size=2)
            boxes.append(list(zip(lo.tolist(), hi.tolist())))
        for _ in range(32):
            i, j = rng.integers(len(extremes), size=2)
            boxes.append([extremes[i], extremes[j]])
        yield e, boxes


def test_batched_pass_is_bit_identical_to_the_scalar_kernels():
    """Every slot of the checker's forward pass, for each box alone and
    inside a shuffled batch of 64, has the bits (signed zeros included)
    of the scalar kernels applied slot by slot, and a box fails exactly
    where a scalar kernel raises; no RuntimeWarning escapes the pass."""
    rng = np.random.default_rng(7)
    failed = compared = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for e, boxes in _enclosure_cases():
            tape = sx.lower(e)
            order = rng.permutation(len(boxes))
            batch = np.array([boxes[i] for i in order]).transpose(1, 2, 0)
            vals, bad = sx._interval_eval_raw(tape, batch)
            for col, i in enumerate(order):
                want, fails = _scalar_slots(tape, boxes[i])
                alone, bad1 = sx._interval_eval_raw(
                    tape, np.array(boxes[i]).reshape(-1, 2, 1))
                for got, b, c in ((vals, bad, col), (alone, bad1, 0)):
                    assert fails == (b is not None and bool(b[c])), (e, i)
                    for slot, w in enumerate(want):
                        assert _same_slot_bits(_batched_slot(got, slot, c),
                                               w), (e, boxes[i], slot)
                        compared += 1
                failed += fails
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert compared > 50_000 and 100 < failed < 2000


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
        lambda e: sx.to_sexpr(e) == ("(add " * 3000 + "(var 0)"
                                     + " (const 1.0))" * 3000),
        lambda e: e == _chain() and e != sx.add(_chain(2999), sx.const(2.0)),
        lambda e: hash(e) == hash(_chain()),
        lambda e: repr(e).startswith("Expr(" + "(add " * 3000),
    ], ids=["arity", "substitute", "to_sexpr", "eq",
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


def _layered_net(rng, widths, activations):
    return nn.Network(tuple(
        nn.make_layer(rng.uniform(-1.5, 1.5, size=(d_out, d_in)),
                      rng.uniform(-0.5, 0.5, size=d_out), act)
        for d_in, d_out, act in zip(widths, widths[1:], activations)))


def _mp_forward(net, y):
    """network output at y in 300-bit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        v = [mpmath.mpf(x) for x in y]
        for layer in net.layers:
            pre = [mpmath.fsum(mpmath.mpf(w) * x for w, x in zip(row, v))
                   + mpmath.mpf(b) for row, b in zip(layer.weights,
                                                     layer.bias)]
            v = [_mp_act(layer.activation, z) for z in pre]
    return v


def _mp_act(name, z):
    import mpmath
    if name == "tanh":
        return mpmath.tanh(z)
    if name == "sigmoid":
        return 1 / (1 + mpmath.exp(-z))
    return z


class TestNetNode:
    def test_smart_constructor(self):
        net = _layered_net(np.random.default_rng(1), (2, 3, 2),
                           ("tanh", "identity"))
        x, y = sx.var(0), sx.var(1)
        e = sx.net(net, 1, (x, y))
        assert e.op == "net" and sx.arity(e) == 2
        assert e == sx.net(net, 1, [x, y]) and e != sx.net(net, 0, (x, y))
        folded = sx.net(net, 0, (sx.const(0.5), sx.const(-1.0)))
        assert folded.op == "const"
        assert folded.val == nn.forward(net, [0.5, -1.0])[0]
        moved = sx.substitute(e, {1: sx.sin(x)})
        assert sx.eval_expr(moved, [0.3]) == nn.forward(
            net, [0.3, math.sin(0.3)])[1]
        for bad in ((2, (x, y)), (0, (x,))):
            with pytest.raises(ValueError):
                sx.net(net, *bad)

    def test_text_names_the_controller(self):
        net = _layered_net(np.random.default_rng(2), (2, 1), ("tanh",))
        e = sx.net(net, 0, (sx.var(1), sx.const(2.0)))
        assert sx.to_sexpr(e) == ("(net %s 0 (var 1) (const 2.0))"
                                  % nn.controller_hash(net))

    def test_one_pass_serves_every_output(self):
        net = _layered_net(np.random.default_rng(3), (2, 4, 2),
                           ("tanh", "tanh"))
        x = (sx.var(0), sx.var(1))
        lhs = sx.add(sx.net(net, 0, x), sx.mul(sx.net(net, 1, x), x[0]))
        tape = sx.lower(lhs)
        assert [node[0] for node in tape.nodes].count("net") == 1
        assert [node[0] for node in tape.nodes].count("row") == 2
        p = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2, 6))
        got = sx.compile_expr(lhs)(p)
        for b in range(6):
            _assert_within_ulps(got[b], sx.eval_expr(lhs, p[:, b]))

    def test_network_runs_once_per_box(self, monkeypatch):
        # once per box and pass: one _inet call per forward pass, over
        # all the boxes of the pass
        net = _layered_net(np.random.default_rng(5), (2, 6, 2),
                           ("tanh", "tanh"))
        x = (sx.var(0), sx.var(1))
        lhs = sx.sub(sx.net(net, 0, x), sx.net(net, 1, x))
        counts = {"net": 0, "pass": 0, "boxes": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                if key == "pass":
                    counts["boxes"] += args[1].shape[2]
                return fn(*args)
            return wrapper
        # lower() binds the kernel it finds in symexpr
        monkeypatch.setattr(sx, "_inet", counted("net", sx._inet))
        monkeypatch.setattr(dsat, "_interval_eval_raw",
                            counted("pass", dsat._interval_eval_raw))
        # just above the largest value on a grid, so the search branches
        grid = np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41))
        top = float(sx.compile_expr(lhs)([g.ravel() for g in grid]).max())
        phi = dsat.Formula(2, dsat.Constraint(lhs, ">=", top + 0.01))
        out = dsat.check(phi, sx.box((-1.0, 1.0), (-1.0, 1.0)), 1e-3)
        assert out.boxes_explored > 20
        assert counts["net"] == counts["pass"] < out.boxes_explored
        assert counts["boxes"] >= out.boxes_explored

    @pytest.mark.parametrize("widths,acts", [
        ((2, 1), ("tanh",)),
        ((3, 2), ("sigmoid",)),
        ((2, 4), ("identity",)),
        ((2, 8, 1), ("tanh", "tanh")),
        ((2, 5, 3), ("sigmoid", "identity")),
        ((3, 6, 4, 2), ("tanh", "sigmoid", "identity")),
        ((2, 7, 5, 1), ("identity", "tanh", "sigmoid")),
    ])
    def test_kernel_against_unrolled_tape(self, widths, acts):
        rng = np.random.default_rng(sum(widths))
        net = _layered_net(rng, widths, acts)
        x = [sx.var(i) for i in range(widths[0])]
        unrolled = nn.to_expr(net)
        for _ in range(20):
            lo = rng.uniform(-2.0, 2.0, size=widths[0])
            hi = lo + rng.uniform(1e-3, 1.0, size=widths[0])
            bx = sx.box(*zip(lo, hi))
            point = rng.uniform(lo, hi)
            exact = _mp_forward(net, point)
            for k in range(widths[-1]):
                got = sx.interval_eval(sx.net(net, k, x), bx)
                ref = sx.interval_eval(unrolled[k], bx)
                assert got.lo <= exact[k] <= got.hi
                assert got.width <= 1.01 * ref.width + 1e-9
                assert ref.width <= 1.01 * got.width + 1e-9

    def test_thousand_neuron_eval_at_and_text(self):
        net = train.widen_controller(nn.load(cli.bundled_controller_path(100)),
                                     1000, seed=0)
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        d_dot = plant.dubins_error_field(plant.DubinsParams())[0]
        for x in ([0.1, 0.05], [-0.7, 1.2]):
            u = nn.forward(net, x)[0]
            assert field.eval_at(x) == [sx.eval_expr(d_dot, x + [u]), -u]
        cand = lpgen.candidate_from([1.0, 0.1, 1.0, 0.0, 0.0, 0.0],
                                    lpgen.QuadraticTemplate(2))
        text = sx.to_sexpr(certify.lie_derivative(cand, field))
        assert text.count("(net ") == 1 and len(text) < 2000


def _exact_value(v):
    """The finite float v times 2**1074, an exact int."""
    num, den = float(v).as_integer_ratio()
    return num * ((1 << 1074) // den)


def _fuzz_values(rng, kind, size):
    """Endpoints of `size` input intervals of one kind, as (lo, hi) arrays."""
    if kind == "moderate":
        a, b = rng.uniform(-3.0, 3.0, size=(2, size))
    elif kind == "huge":
        a, b = rng.uniform(-1.0, 1.0, size=(2, size)) * 1e307
    elif kind == "tiny":
        a, b = rng.uniform(-1.0, 1.0, size=(2, size)) * 1e-300
    elif kind == "subnormal":
        a, b = rng.integers(-2**40, 2**40, size=(2, size)) * 5e-324
    else:   # mixed: a different scale for every input
        scale = 10.0 ** rng.integers(-320, 300, size=size)
        a, b = rng.uniform(-1.0, 1.0, size=(2, size)) * scale
    return np.minimum(a, b), np.maximum(a, b)


def _fuzz_layer(rng, d_in, d_out, act):
    """A random layer with weights and bias at one scale from 1e-300 to
    1e300, a tenth of the weights zero: (w, b, layer)."""
    scale = 10.0 ** float(rng.choice([0, 0, 0, -300, -150, 150, 300]))
    w = rng.uniform(-1.0, 1.0, size=(d_out, d_in)) * scale
    w[rng.random(w.shape) < 0.1] = 0.0
    b = rng.uniform(-1.0, 1.0, size=d_out) * scale
    return w, b, nn.make_layer(w, b, act)


_FUZZ_KINDS = ("moderate", "huge", "tiny", "subnormal", "mixed",
               "half_infinite", "whole_line")


def _fuzz_box(rng, kind, size):
    """Endpoints of `size` input intervals of one of _FUZZ_KINDS."""
    lo, hi = _fuzz_values(rng, "mixed" if kind in (
        "half_infinite", "whole_line") else kind, size)
    if kind == "half_infinite":
        j = rng.integers(size)
        lo[j], hi[j] = (-math.inf, hi[j]) if rng.random() < 0.5 else (
            lo[j], math.inf)
    elif kind == "whole_line":
        j = rng.integers(size)
        lo[j], hi[j] = -math.inf, math.inf
    return lo, hi


def _fuzz_points(rng, lo, hi, count=3):
    """count points of the box, finite endpoints standing in for infinite
    ones, each coordinate inside or at a corner."""
    finite_lo = np.where(np.isfinite(lo), lo, -1e300)
    finite_hi = np.where(np.isfinite(hi), hi, 1e300)
    for _ in range(count):
        u = rng.random(lo.size)
        inside = np.clip(finite_lo * (1 - u) + finite_hi * u, finite_lo,
                         finite_hi)
        corner = np.where(rng.random(lo.size) < 0.5, finite_lo, finite_hi)
        yield np.where(rng.random(lo.size) < 0.3, corner, inside)


def _exact_rows(w, b, rows):
    """Rows of a layer as exact ints, 2**1074 times each weight and
    2**2148 times the bias."""
    return {i: ([_exact_value(v) for v in w[i]],
                _exact_value(b[i]) * (1 << 1074)) for i in rows}


def _exact_layer(mpmath, rows, act, point):
    """The layer's outputs at the float point, for rows from _exact_rows:
    pre-activations summed exactly in integers, the activation in 200-bit
    mpmath."""
    px = [_exact_value(v) for v in point]
    out = {}
    for i, (wx, bx) in rows.items():
        total = sum(a * c for a, c in zip(wx, px)) + bx
        # strip the trailing zeros first, which mpmath does slowly
        shift = max((total & -total).bit_length() - 1, 0)
        with mpmath.workprec(200):
            z = mpmath.mpf((total >> shift, shift - 2 * 1074))
            out[i] = _mp_act(act, z)
    return out


def _kernel_out(net, lo, hi):
    (out,) = iv._inet(iv._net_layers(net), np.array([[lo, hi]]))
    out = list(zip(*out.tolist()))
    assert len(out) == len(net.layers[-1].bias)
    assert all(o_lo <= o_hi for o_lo, o_hi in out)   # no NaN, not empty
    return out


def test_layer_kernel_mpmath_fuzz():
    """One interval layer (interval._inet on a one-layer network) contains
    the exact image of sampled points of its input box: the
    pre-activations summed exactly in integers, the activation in mpmath.
    Widths up to 1,000, all three activations; huge, tiny, subnormal,
    mixed-scale, half-infinite and whole-line inputs; zero violations."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1810)
    shapes = ((1, 1), (2, 1), (2, 100), (3, 7), (100, 1), (30, 30),
              (1000, 1), (2, 1000), (1000, 3), (7, 1000))
    violations = checked = 0
    for trial in range(420):
        d_in, d_out = shapes[trial % len(shapes)]
        act = nn.ACTIVATIONS[trial % 3]
        kind = _FUZZ_KINDS[(trial // 3) % len(_FUZZ_KINDS)]
        w, b, layer = _fuzz_layer(rng, d_in, d_out, act)
        lo, hi = _fuzz_box(rng, kind, d_in)
        out = _kernel_out(nn.Network((layer,)), lo, hi)
        rows = rng.choice(d_out, size=min(d_out, 6), replace=False).tolist()
        exact_rows = _exact_rows(w, b, rows)
        for point in _fuzz_points(rng, lo, hi):
            exact = _exact_layer(mpmath, exact_rows, act, point)
            for i in rows:
                checked += 1
                if not (out[i][0] <= exact[i] <= out[i][1]):
                    violations += 1
    assert checked > 4000
    assert violations == 0


def test_two_layer_kernel_mpmath_fuzz():
    """The layer after a tanh or sigmoid, whose error term _net_layers
    fixes in advance from inputs in [-1, 1], contains the exact image of
    sampled points: the first layer as in test_layer_kernel_mpmath_fuzz,
    the second's sums in 400-bit mpmath (off by far less than the
    kernel's error term 8mu times the sum of |terms|), all three second
    activations, both layers' weights and biases at scales 1e-300 to
    1e300 with zeros, the same input kinds; zero violations."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1999)
    shapes = ((1, 1, 1), (2, 3, 1), (2, 10, 2), (3, 100, 1), (30, 30, 30),
              (1, 1000, 3), (7, 50, 1000))
    violations = checked = bounded = 0
    # every shape with every pair of activations and every input kind
    for trial in range(len(shapes) * 6 * len(_FUZZ_KINDS)):
        d_in, d_mid, d_out = shapes[trial % len(shapes)]
        combo = trial // len(shapes)
        act1 = ("tanh", "sigmoid")[combo % 2]
        act2 = nn.ACTIVATIONS[(combo // 2) % 3]
        kind = _FUZZ_KINDS[combo // 6]
        w1, b1, layer1 = _fuzz_layer(rng, d_in, d_mid, act1)
        w2, b2, layer2 = _fuzz_layer(rng, d_mid, d_out, act2)
        net = nn.Network((layer1, layer2))
        bounded += iv._net_layers(net)[1][5] is not None
        lo, hi = _fuzz_box(rng, kind, d_in)
        out = _kernel_out(net, lo, hi)
        rows = rng.choice(d_out, size=min(d_out, 6), replace=False).tolist()
        exact_rows = _exact_rows(w1, b1, range(d_mid))
        w2_rows = {i: [mpmath.mpf(float(a)) for a in w2[i]] for i in rows}
        for point in _fuzz_points(rng, lo, hi):
            mid = _exact_layer(mpmath, exact_rows, act1, point)
            with mpmath.workprec(400):
                for i in rows:
                    z = mpmath.fsum(a * mid[j]
                                    for j, a in enumerate(w2_rows[i]))
                    value = _mp_act(act2, z + mpmath.mpf(float(b2[i])))
                    checked += 1
                    if not (out[i][0] <= value <= out[i][1]):
                        violations += 1
    assert bounded > 150    # most second layers use the fixed error term
    assert checked > 2000
    assert violations == 0


_REF_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
            "div": np.divide, "neg": np.negative, "sin": np.sin,
            "cos": np.cos, "exp": np.exp, "tanh": np.tanh}


def _ref_array_eval(e, p):
    """e at the columns of p node by node, each node with the numpy
    operation of a tape interpreter (operands in the same order, a ** n,
    a network's inputs stacked and its layers run in turn): the reference
    that the generated programs must equal bit for bit."""
    vals = {}
    for node in sx._postorder(e):
        args = [vals[id(a)] for a in node.args]
        if node.op == "const":
            v = np.array(node.val)
        elif node.op == "var":
            v = p[node.idx]
        elif node.op == "pow":
            v = args[0] ** node.val
        elif node.op == "net":
            network, k = node.val
            try:
                y = np.asarray(args)
            except ValueError:
                y = np.array(np.broadcast_arrays(*args))
            for w, b, act in nn.batch_arrays(network, y.shape[1]):
                y = w @ y
                y += b
                if act == "tanh":
                    np.tanh(y, out=y)
                elif act == "sigmoid":
                    y = 1.0 / (1.0 + np.exp(-y))
            v = y[k]
        else:
            v = _REF_OPS[node.op](*args)
        vals[id(node)] = v
    return vals[id(e)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _program_inputs(rng, n, width):
    """One set of points as a C-ordered array, a list of its rows and a
    non-contiguous view."""
    view = rng.uniform(-2.0, 2.0, size=(n, 2 * width))[:, ::2]
    assert not view.flags.c_contiguous
    return [np.ascontiguousarray(view), list(np.ascontiguousarray(view)),
            view]


# 257 is above network.REPEAT_MAX, where a bias is broadcast, not repeated
_PROGRAM_WIDTHS = (1, 2, 40, nn.REPEAT_MAX + 1)


def _assert_field_matches_reference(field, rng):
    for width in _PROGRAM_WIDTHS:
        for x in _program_inputs(rng, field.arity, width):
            p = np.asarray(x, dtype=float)
            want = np.empty((len(field.components), width))
            for i, c in enumerate(field.components):
                want[i] = _ref_array_eval(c, p)
                assert _same_bits(sx.compile_expr(c)(x),
                                  _ref_array_eval(c, x))
            assert _same_bits(field.batched(x), want)
            out = np.full_like(want, np.nan)
            assert field.batched(x, out) is out and _same_bits(out, want)


class TestArrayProgram:
    def test_random_trees_match_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            e = _rand_expr(rng, 5)
            f = sx.compile_expr(e)
            for width in _PROGRAM_WIDTHS:
                for p in _program_inputs(rng, 2, width):
                    assert _same_bits(f(p), _ref_array_eval(e, p)), e

    def test_random_fields_match_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            _assert_field_matches_reference(plant.VectorField(
                2, (_rand_expr(rng, 4), _rand_expr(rng, 4))), rng)

    @pytest.mark.parametrize("widths,acts,gain", [
        ((2, 1), ("tanh",), 1.0),
        ((2, 6, 1), ("sigmoid", "sigmoid"), 1.0),
        ((2, 6, 1), ("identity", "identity"), 1.0),
        ((2, 5, 4, 1), ("tanh", "sigmoid", "identity"), 1.0),
        ((2, 6, 1), ("tanh", "tanh"), 2.0),
    ], ids=["tanh", "sigmoid", "identity", "three-layer", "gain-2"])
    def test_closed_loops_match_reference(self, widths, acts, gain):
        rng = np.random.default_rng(len(widths))
        field = plant.dubins_closed_loop(
            plant.DubinsParams(), _layered_net(rng, widths, acts), gain=gain)
        _assert_field_matches_reference(field, rng)

    @pytest.mark.parametrize("output", [
        lambda: [sx.sub(sx.var(0), sx.var(1)), sx.const(0.25)],
        lambda: [sx.var(1), sx.var(0)],
    ], ids=["expressions", "swapped"])
    def test_output_maps_match_reference(self, output):
        rng = np.random.default_rng(14)
        field = plant.close_loop(
            plant.dubins_error_field(plant.DubinsParams()), output(),
            _layered_net(rng, (2, 3, 1), ("tanh", "tanh")))
        _assert_field_matches_reference(field, rng)

    def test_constant_var_and_net_row_components(self):
        rng = np.random.default_rng(15)
        net = _layered_net(rng, (2, 4, 2), ("tanh", "sigmoid"))
        x = (sx.var(0), sx.var(1))
        field = plant.VectorField(3, (
            sx.const(-0.5), sx.var(2), sx.net(net, 1, x),
            sx.mul(sx.net(net, 0, x), sx.var(2)), sx.var(2)))
        _assert_field_matches_reference(field, rng)

    def test_every_stored_register_is_loaded(self):
        # A network whose inputs are var(0..q-1) in order reads p's rows,
        # so a var that only it reads needs no register.
        def fast_names(code, kind):
            out = set()
            for ins in dis.get_instructions(code):
                names = (ins.argval if isinstance(ins.argval, tuple)
                         else (ins.argval,))
                out.update(n for k, n in zip(re.findall(
                    r"(LOAD|STORE)_FAST", ins.opname), names) if k == kind)
            return out

        net = nn.load(cli.bundled_controller_path(10))
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        swapped = plant.close_loop(
            plant.dubins_error_field(plant.DubinsParams()),
            [sx.var(1), sx.var(0)], net)
        cand = lpgen.candidate_from([1.0, 0.5, 2.0, 0.1, -0.1, 0.0],
                                    lpgen.QuadraticTemplate(2))
        for run in (field.batched, swapped.batched, sx.compile_expr(
                certify.lie_derivative(cand, field))):
            code = run.__code__
            assert fast_names(code, "STORE") <= fast_names(code, "LOAD")

    def test_no_value_in_the_source(self, monkeypatch):
        sources = []

        def compiled(source):
            sources.append(source)
            return compile(source, "<program>", "exec")
        monkeypatch.setattr(sx, "_compiled", compiled)
        e = sx.add(sx.mul(sx.const(-2.5), sx.pow_(sx.var(0), 3)),
                   sx.const(0.1))
        assert sx.compile_expr(e)([np.array([2.0])]).tolist() == [0.1 - 20.0]
        # no number is an operand in the text: p[0] is the only literal
        assert len(sources) == 1 and "p[0]" in sources[0]
        assert not re.search(r"[(,]\s*[-+.\d]", sources[0])
