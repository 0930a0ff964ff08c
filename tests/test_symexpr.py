"""Expression trees: evaluation, differentiation, intervals, serialization."""

import dis
import itertools
import math
import re
import struct
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from barricade import certify, cli, dsat, lpgen, plant, simulate, train
from barricade import interval as iv
from barricade import network as nn
from barricade import symexpr as sx
import scalar_reference as ref
from test_acceptance import _random_expr
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
        lo, hi = sx.interval_eval(sx.sin(sx.var(0)), sx.box((0.0, math.pi)))
        assert lo <= 0.0 <= hi
        assert hi >= 1.0
        assert hi < 1.0 + 1e-12 and lo > -1e-12

    def test_even_power(self):
        lo, hi = sx.interval_eval(sx.pow_(sx.var(0), 2), sx.box((-2.0, 1.0)))
        assert lo <= 0.0 and abs(lo) < 1e-12
        assert 4.0 <= hi < 4.0 + 1e-12

    def test_trig_argument_limit(self):
        # beyond TRIG_ARG_LIMIT, or at a NaN end (exp(x) - inf is
        # [-inf, NaN] where exp overflows), sin and cos are the whole line
        inf = sx.mul(sx.const(1e200), sx.const(1e200))
        for arg, bx in ((sx.var(0), sx.box((2.0e6, 3.0e6))),
                        (sx.sub(sx.exp(sx.var(0)), inf), sx.box((0.0, 1e3)))):
            for fn in (sx.sin, sx.cos):
                got = sx.interval_eval(fn(arg), bx)
                assert got == (-math.inf, math.inf)
        # an enclosure with a NaN end, or the infinite point [inf, inf] or
        # [-inf, -inf], holds no real number: the whole line, not an error
        for e in (sx.sub(sx.exp(sx.var(0)), inf), inf, sx.neg(inf)):
            got = sx.interval_eval(e, sx.box((0.0, 1e3)))
            assert got == (-math.inf, math.inf)

    def test_division_through_zero_is_whole_line(self):
        lo, hi = sx.interval_eval(sx.div(sx.const(1.0), sx.var(0)),
                                  sx.box((-1.0, 1.0)))
        assert lo == -math.inf and hi == math.inf

    def test_inf_over_inf_is_whole_line(self):
        q = sx.div(sx.sub(sx.const(1.0), sx.exp(sx.var(0))),
                   sx.neg(sx.exp(sx.var(1))))
        lo, hi = sx.interval_eval(q, sx.box((700.0, 800.0), (700.0, 800.0)))
        assert lo == -math.inf and hi == math.inf

    def test_var_beyond_the_box_rejected(self):
        # named, not numpy's IndexError; var(0) alone reads within arity 1
        with pytest.raises(ValueError, match=r"^var\(2\) read at arity 1$"):
            sx.interval_eval(sx.add(sx.var(0), sx.var(2)), sx.box((0.0, 1.0)))
        assert sx.interval_eval(sx.var(0), sx.box((0.0, 1.0))) == (0.0, 1.0)


class TestBox:
    def test_bounds_are_the_ends(self):
        bx = sx.box((-1.0, 2.0), (-0.0, 0.0), (3.5, 3.5))
        assert bx.bounds.tolist() == [[-1.0, 2.0], [-0.0, 0.0], [3.5, 3.5]]
        assert math.copysign(1.0, bx.bounds[1, 0]) == -1.0
        assert bx.bounds.dtype == float and bx.bounds is bx.bounds

    def test_bounds_are_read_only(self):
        bx = sx.box((-1.0, 2.0), (0.0, 1.0))
        for write in (lambda b: b.__setitem__((0, 0), 5.0),
                      lambda b: b.fill(0.0), lambda b: b.sort()):
            with pytest.raises(ValueError):
                write(bx.bounds)
        assert bx.bounds.tolist() == [[-1.0, 2.0], [0.0, 1.0]]

    def test_bounds_is_the_only_data(self):
        bx = sx.box((-1.0, 2.0), (0.0, 1.0))
        bx.midpoint(), bx.contains([0.0, 0.5]), bx.arity    # cache nothing
        assert list(vars(bx)) == ["bounds"]
        with pytest.raises(AttributeError):
            bx.bounds = np.zeros((2, 2))
        ends = np.array([[-1.0, 2.0], [0.0, 1.0]])
        made = sx.Box(ends)
        ends[0, 0] = 5.0        # Box keeps a copy
        assert made == bx and made.bounds is not ends

    @pytest.mark.parametrize("rows", [
        [(1.0, 0.0)], [(math.nan, 1.0)], [(0.0, math.nan)],
        [(math.inf, math.inf)], [(-math.inf, -math.inf)],
        [(0.0, 1.0), (2.0, 1.0)],
    ], ids=["lo_above_hi", "nan_lo", "nan_hi", "inf_point", "-inf_point",
            "second_row"])
    def test_rejects_rows_without_a_real_number(self, rows):
        with pytest.raises(ValueError):
            sx.box(*rows)
        with pytest.raises(ValueError):
            sx.Box(np.array(rows))

    def test_rejects_rows_that_are_not_pairs(self):
        for rows in ([(1, 2, 3, 4)], [(1.0,)], [(0.0, 1.0), (2.0,)],
                     [1.0, 2.0], [[(0.0, 1.0)]]):
            with pytest.raises((ValueError, TypeError)):
                sx.box(*rows)
        for ends in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2, 1))):
            with pytest.raises(ValueError):
                sx.Box(ends)

    def test_equal_ends_make_equal_boxes(self):
        a = sx.box((-0.0, 0.0), (1.0, 2.0))
        b = sx.Box(np.array([[0.0, -0.0], [1.0, 2.0]]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != sx.box((-0.0, 0.0), (1.0, 3.0))
        assert a != sx.box((-0.0, 0.0))
        assert a != a.bounds.tolist()

    def test_contains_follows_the_scalar_rule(self):
        # on the faces, just outside them, at -0.0 against 0.0 ends, at
        # infinities and NaN: lo <= x <= hi in every dimension
        bx = sx.box((-1.0, 2.0), (-0.0, 0.0), (0.0, 5e-324))
        coords = (-1.0, 2.0, -0.0, 0.0, 5e-324, -5e-324, 0.5,
                  -1.0000000000000002, 2.0000000000000004, math.inf,
                  -math.inf, math.nan)
        pts = list(itertools.product(coords, repeat=3))
        want = [all(lo <= x <= hi for (lo, hi), x in zip(bx.bounds, p))
                for p in pts]
        assert 0 < sum(want) < len(want)
        assert bx.contains(np.array(pts)).tolist() == want
        assert [bx.contains(p) for p in pts] == want
        assert all(type(bx.contains(p)) is bool for p in pts[:5])
        assert bx.contains(np.empty((0, 3))).shape == (0,)

    @pytest.mark.parametrize("rows, shape", [
        ([(-1.0, 2.0), (-0.0, 0.0)], (2,)),
        ([(-1.0, 2.0), (-0.0, 0.0)], (7, 2)),
        ([(-1.0, 2.0), (-0.0, 0.0)], (3, 5, 2)),
        ([(-1.0, 2.0), (-0.0, 0.0)], (0, 2)),
        ([(0.0, 5e-324)], (9, 1)),
        ([], (0,)),
        ([], (4, 0)),
        ([(-1.0, 2.0), (-0.0, 0.0), (0.0, 5e-324)], (6, 3)),
    ], ids=["point", "rows", "grid", "no_rows", "arity_1", "arity_0_point",
            "arity_0_rows", "arity_3"])
    def test_contains_equals_the_all_formula(self, rows, shape):
        # the mask of every dimension at once, NaN and infinite
        # coordinates and signed zeros among the points
        bx = sx.box(*rows)
        coords = np.array([-1.0, 2.0, -0.0, 0.0, 5e-324, -5e-324, 0.5, 3.0,
                           math.inf, -math.inf, math.nan])
        x = np.random.default_rng(17).choice(coords, size=shape)
        lo, hi = bx.bounds.T
        want = ((lo <= x) & (x <= hi)).all(axis=-1)
        got = bx.contains(x)
        if len(shape) == 1:
            assert type(got) is bool and got == bool(want)
        else:
            assert got.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_contains_wrong_length_raises(self):
        bx = sx.box((-1.0, 2.0), (0.0, 1.0))
        for bad in ([0.5], [0.5, 0.5, 0.5], np.zeros((4, 3)), 0.5, []):
            with pytest.raises(ValueError):
                bx.contains(bad)


_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300,
             sys.float_info.max, -sys.float_info.max, math.inf, -math.inf)


def _extreme_intervals():
    """Every (lo, hi) pair of _EXTREMES that box accepts."""
    out = []
    for lo in _EXTREMES:
        for hi in _EXTREMES:
            try:
                sx.box((lo, hi))
            except ValueError:
                continue
            out.append((lo, hi))
    return out


class TestExtremeEndpoints:
    def test_degenerate_infinite_intervals_rejected(self):
        for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
            with pytest.raises(ValueError):
                sx.box((lo, hi))
        with pytest.raises(ValueError):
            sx.box((-math.inf, -math.inf), (-math.inf, math.inf))
        (lo, hi), = sx.box((-math.inf, math.inf)).bounds
        assert hi - lo == math.inf
        assert sx.box((-math.inf, -1e308)).bounds[0, 1] == -1e308

    def test_midpoint_near_float_max(self):
        # lo + hi overflows
        bx = sx.box((1.6e308, 1.7e308))
        mid = bx.midpoint()
        assert math.isfinite(mid[0]) and bx.contains(mid)

    def test_midpoint_of_floats_and_of_arrays_agree(self):
        ivs = _extreme_intervals()
        with np.errstate(all="ignore"):
            got = iv._mid(*np.array(ivs).T)
        want = np.array([float(iv._mid(lo, hi)) for lo, hi in ivs])
        assert np.array_equal(got, want, equal_nan=True)
        assert (np.signbit(got) == np.signbit(want))[want == want].all()

    def test_kernels_on_extreme_endpoints(self):
        ivs = _extreme_intervals()
        cases = []
        for name, fn in ref._KERNELS.items():
            if name in ("add", "sub", "mul", "div"):
                cases += [(name, fn, (a, b)) for a in ivs for b in ivs]
            else:
                cases += [(name, fn, (a,)) for a in ivs]
        for n in (2, 3):
            cases += [("pow", partial(ref._ipow, n=n), (a,)) for a in ivs]
        for name, fn, args in cases:
            lo, hi = fn(*args)      # no kernel raises
            assert lo == lo and hi == hi and lo <= hi, (name, args, lo, hi)
        assert len(cases) > 20000

    def test_division_whose_quotients_sum_to_nan(self):
        # no quotient is NaN, but their sum in order overflows to inf
        # before it meets -inf: the scalar kernel gives the whole line,
        # where the hull of the quotients would not
        a, b = (-7e307, 1e308), (-1.0, -0.5)
        with np.errstate(all="ignore"):
            got = iv._vdiv(np.array(a)[:, None], np.array(b)[:, None])
        assert tuple(got[:, 0].tolist()) == ref._idiv(a, b) == (
            -math.inf, math.inf)

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


def _bits(x):
    return struct.pack("d", x)


def _batched_slot(tape, vals, slot, col):
    """Box col's enclosure in slot of a forward pass's (2, S, B) array; for
    a network, its outputs, which the pass writes to its rows' slots."""
    op, network = tape.nodes[slot][:2]
    if op == "net":
        rows = {node[1]: s for s, node in enumerate(tape.nodes)
                if node[0] == "row" and node[3] == (slot,)}
        return [tuple(vals[:, rows[k], col].tolist())
                for k in range(network.output_dim)]
    return tuple(vals[:, slot, col].tolist())


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


def _trig_refused(tape, vals):
    """The boxes on which a sin or cos argument of the tape is not within
    TRIG_ARG_LIMIT, NaN included, a (B,) bool array: where the kernel
    gives the whole line."""
    refused = np.zeros(vals.shape[-1], bool)
    for op, _, _, kids in tape.nodes:
        if op in ("sin", "cos"):
            refused |= ~(np.abs(vals[:, kids[0]]) <= iv.TRIG_ARG_LIMIT).all(0)
    return refused


def test_batched_pass_is_bit_identical_to_the_scalar_kernels():
    """Every slot of the checker's forward pass, for each box alone and
    inside a shuffled batch of 64, has the bits (signed zeros included)
    of the scalar kernels applied slot by slot, boxes where a sin or cos
    argument is refused among them; no RuntimeWarning escapes the pass."""
    rng = np.random.default_rng(7)
    refused = compared = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for e, boxes in _enclosure_cases():
            tape = sx.lower(e)
            order = rng.permutation(len(boxes))
            batch = np.array([boxes[i] for i in order]).transpose(1, 2, 0)
            vals = sx._interval_eval_raw(tape, batch)
            for col, i in enumerate(order):
                want = ref._scalar_slots(tape, boxes[i])
                alone = sx._interval_eval_raw(
                    tape, np.array(boxes[i]).reshape(-1, 2, 1))
                for got, c in ((vals, col), (alone, 0)):
                    for slot, w in enumerate(want):
                        assert _same_slot_bits(
                            _batched_slot(tape, got, slot, c), w), (
                                e, boxes[i], slot)
                        compared += 1
            refused += int(_trig_refused(tape, vals).sum())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert compared > 50_000 and 100 < refused < 2000


def _replaced_trig(a, fn, crit):
    """The batched sin and cos kernels that interval._vsincos replaced
    (_vtrig, with _vsin and _vcos binding fn and crit), as they were: fn
    over every column of a, a (2, B) array, fn bottoming out at crit[0] +
    2*pi*k and peaking at crit[1] + 2*pi*k."""
    bad = ~(np.abs(a) <= iv.TRIG_ARG_LIMIT).all(axis=0)    # NaN included
    v = iv._vhull(iv._emap(fn, np.where(bad, 0.0, a)))
    ends = a + iv._UNIT * (1e-9 * (1.0 + np.maximum.reduce(np.abs(a))))
    k = (ends[:, None] - crit) / iv._TWO_PI
    np.copyto(v, iv._UNIT, where=np.ceil(k[0]) <= np.floor(k[1]))
    v = iv._vclip(iv._vwiden(v, 2), -1.0, 1.0)
    np.copyto(v, iv._UNIT, where=a[1] - a[0] >= iv._TWO_PI)
    np.copyto(v, iv._OUT, where=bad)
    return v


_REPLACED = {"sin": partial(_replaced_trig, fn=math.sin, crit=np.array(
                 [[-math.pi / 2], [math.pi / 2]])),
             "cos": partial(_replaced_trig, fn=math.cos, crit=np.array(
                 [[math.pi], [0.0]]))}


def _trig_arguments():
    """sin and cos arguments, a (2, B) array: random ones of widths from
    1e-12 to beyond 2*pi; ones that end at, just short of or just past an
    extremum k*pi/2 (within the kernels' 1e-9 growth, or outside it), or
    hold one; every pair of _EXTREMES; NaN ends; ends at and beyond
    TRIG_ARG_LIMIT."""
    rng = np.random.default_rng(2212)
    args = []
    for w in (1e-12, 1e-6, 0.1, 1.0, 3.0, 6.0, iv._TWO_PI - 1e-9,
              iv._TWO_PI, 8.0):
        lo = rng.uniform(-20.0, 20.0, size=24)
        args += zip(lo, lo + w)
    for k in range(-8, 9):
        c = k * math.pi / 2
        for d in (0.0, 1e-12, 1e-10, 2e-9, 1e-3):
            args += [(c - d, c + d), (c + d, c + 0.5), (c - 0.5, c - d)]
    limit = iv.TRIG_ARG_LIMIT
    above = math.nextafter(limit, math.inf)
    return np.array(args + _extreme_intervals() + [
        (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
        (-math.inf, math.nan), (limit, limit), (-limit, limit),
        (limit, above), (-above, 0.0), (2.0e6, 3.0e6),
        (-1.0e7, -1.0e7)]).T.copy()


@np.errstate(all="ignore")
def test_sincos_kernel_matches_the_kernels_it_replaced():
    """interval._vsincos gives the bits of the kernels it replaced and of
    the scalar reference, for sin and cos together in either order and
    each alone, in one batch and one box at a time: on arguments with NaN
    ends or beyond TRIG_ARG_LIMIT (the whole line), widths >= 2*pi
    ([-1, 1]) and extrema inside.  A tape runs the sin and cos of one
    argument in one entry."""
    a = _trig_arguments()
    want = {name: kernel(a) for name, kernel in _REPLACED.items()}
    for ops in (("sin", "cos"), ("cos", "sin"), ("sin",), ("cos",)):
        got = iv._vsincos(a[None], ops)
        assert got.shape == (len(ops), 2, a.shape[1])
        for j, name in enumerate(ops):
            assert got[j].tobytes() == want[name].tobytes(), (ops, name)
    for col in range(a.shape[1]):
        one = iv._vsincos(a[None, :, col:col + 1], ("sin", "cos"))
        for j, name in enumerate(("sin", "cos")):
            assert one[j, :, 0].tobytes() == want[name][:, col].tobytes()
            scalar = {"sin": ref._isin, "cos": ref._icos}[name]
            assert _same_slot_bits(one[j, :, 0].tolist(),
                                   scalar(tuple(a[:, col].tolist())))
    bad = ~(np.abs(a) <= iv.TRIG_ARG_LIMIT).all(axis=0)
    wide = ~bad & (a[1] - a[0] >= iv._TWO_PI)
    assert bad.sum() >= 10 and np.isnan(a).any(axis=0).sum() == 4
    assert wide.sum() >= 20
    for name, fn in (("sin", math.sin), ("cos", math.cos)):
        # an extremum inside: a row at -1 or 1 that neither end reaches
        ends = np.vectorize(fn)(np.where(bad, 0.0, a))
        held = (~bad & ~wide
                & ((want[name][1] == 1.0) & (ends.max(axis=0) < 0.999)
                   | (want[name][0] == -1.0) & (ends.min(axis=0) > -0.999)))
        assert held.sum() >= 20, name
    x = sx.var(0)
    for e, entries in ((sx.add(sx.sin(x), sx.cos(x)), 1),
                       (sx.mul(sx.sin(x), sx.cos(sx.var(1))), 2)):
        code = sx.lower(e).code
        assert [fn.func for _, fn, _, _ in code if isinstance(
            fn, partial)].count(iv._vsincos) == entries


def _full_plan(tape):
    """Every occurrence that dsat._hc4_plan's walk reaches, in preorder, as
    (slot, role, parent entry, sibling slot, var index or -1)."""
    nodes = tape.nodes
    plan = []
    stack = [(tape.root, dsat._ROOT, -1, -1)]
    while stack:
        slot, how, parent, sib = stack.pop()
        op, _, idx, kids = nodes[slot]
        me = len(plan)
        plan.append((slot, how, parent, sib, idx if op == "var" else -1))
        roles = dsat._HC4_ROLES.get(op)
        if roles is not None:
            children = list(zip(kids, roles, reversed(kids)))
            stack.extend((kid, how, me, sib)
                         for kid, how, sib in reversed(children))
    return plan


def _meet(t, f):
    """(max(f[0], t[0]), min(f[1], t[1])) by Python's rule for ties."""
    take = np.greater(t, f)
    take[1] = t[1] < f[1]
    return np.where(take, t, f)


def _reference_contract(plan, vals, boxes, target, live):
    """dsat._contract one entry at a time, as a recursive walk runs it:
    the full plan, the general interval division for every operand of a
    mul, and below a product whose sibling's enclosure holds zero, the
    whole line as target, which neither narrows nor refutes."""
    ts = [None] * len(plan)
    skips = [None] * len(plan)
    refuted = np.zeros(boxes.shape[2], bool)
    for i, (slot, how, parent, sib, idx) in enumerate(plan):
        skip = None
        if how == dsat._ROOT:
            t = target
        else:
            t = ts[parent]
            skip = skips[parent]
            if how == dsat._ADD:
                t = iv._vsub(t, vals[:, sib])
            elif how == dsat._MUL:
                f = vals[:, sib]
                zero = (f[0] <= 0.0) & (0.0 <= f[1])
                skip = zero if skip is None else skip | zero
                t = iv._vdiv(t, f)
            elif how == dsat._SUB_L:
                t = iv._vadd(t, vals[:, sib])
            elif how == dsat._SUB_R:
                t = iv._vsub(vals[:, sib], t)
            else:
                t = iv._vneg(t)
        if idx >= 0:
            cur = boxes[idx]
            t = _meet(t, cur)
            if skip is not None:
                t = np.where(skip, cur, t)
            refuted |= t[0] > t[1]
            np.copyto(cur, t, where=live)
            continue
        t = _meet(t, vals[:, slot])
        if skip is not None:
            t = np.where(skip, iv._OUT, t)
        refuted |= t[0] > t[1]
        ts[i] = t
        skips[i] = skip
    return refuted & live


def _reference_lhs():
    """Left-hand sides for the HC4 reference test: criterion 06's random
    trees, and products by constants (±0, ±inf, negative, tiny and huge,
    some of which the smart constructors would fold) under sums,
    negations and other products."""
    rng = np.random.default_rng(1999)
    x, y = sx.var(0), sx.var(1)
    lhs = [_random_expr(rng, 3, 2) for _ in range(80)]
    for c in (2.0, -2.5, 0.5, -1.0, 1e-300, -1e300, sys.float_info.max,
              5e-324, 0.0, -0.0, math.inf, -math.inf):
        cx = sx.Expr("mul", (sx.const(c), x))
        lhs += [sx.add(cx, y), sx.sub(y, sx.Expr("mul", (x, sx.const(c)))),
                sx.neg(cx), sx.mul(cx, y), sx.add(sx.mul(cx, sx.const(-3.0)),
                                                  sx.sin(y))]
    # a leaf with the enclosure [0, NaN] (exp of [-inf, inf - inf]) under
    # a product, whose NaN-zeroing makes its target finite
    return lhs + [sx.mul(sx.exp(sx.sub(x, sx.const(math.inf))), y)]


def _reference_boxes():
    """Criterion 06's boxes and every pair of _extreme_intervals(), as one
    (2, 2, B) array."""
    rng = np.random.default_rng(2006)
    boxes = []
    for _ in range(64):
        lo = rng.uniform(-2.0, 2.0, size=2)
        hi = lo + rng.uniform(0.0, 2.0, size=2)
        boxes.append(list(zip(lo.tolist(), hi.tolist())))
    ivs = _extreme_intervals()
    boxes += [[a, b] for a in ivs for b in ivs]
    return np.array(boxes).transpose(1, 2, 0).copy()


@np.errstate(all="ignore")
def test_hc4_sweep_matches_the_reference_sweep():
    """The lowered atom's sweep (one stacked step per depth and role, no
    mask at all) over every box refutes the boxes that the general sweep
    refutes, on criterion 06's trees and boxes and on extreme boxes, and
    contracts every other box to the same bits, the boxes where a sin or
    cos argument is refused among them.  A refuted box's endpoints are
    never read (the search drops it), and may differ."""
    before = _reference_boxes()
    rng = np.random.default_rng(1999)
    live = np.ones(before.shape[2], bool)
    compared = refuted = 0
    for lhs in _reference_lhs():
        atom = dsat._Atom(dsat.Constraint(lhs, "<=", 0.0))
        full = _full_plan(atom.tape)
        vals = sx._interval_eval_raw(atom.tape, before)
        for rel in dsat.RELATIONS:
            for rhs in (float(rng.uniform(-3.0, 3.0)), 0.0, -5e-324, -1.0,
                        1e300, -sys.float_info.max, math.inf):
                target = dsat._target_interval(rel, rhs)
                got, want = before.copy(), before.copy()
                mask = dsat._contract(atom.plan, vals, got, target)
                ref = _reference_contract(full, vals, want, target, live)
                where = (sx.to_sexpr(lhs), rel, rhs)
                assert mask.tolist() == ref.tolist(), where
                # the bytes of struct.pack("d") of each endpoint
                assert (got[:, :, ~ref].tobytes()
                        == want[:, :, ~ref].tobytes()), where
                compared += 1
                refuted += int(ref.sum())
    assert compared > 1000 and refuted > 10_000


@np.errstate(all="ignore")
def test_hc4_var_meets_follow_preorder():
    """x occurs twice in one step (depth 2, under an add) and once more at
    depth 4; on boxes and targets with ends at -0.0, 0.0 and their
    neighbours, where a meet's ties between signed zeros decide bits, the
    sweep gives the reference's refuted mask and bytes, one box at a time
    and 128 at a time.  So it does for x - x <= -1.5, which refutes a
    box only when the box meets both of x's targets in turn."""
    x = sx.var(0)
    lhs = sx.add(sx.add(x, x), sx.neg(sx.neg(sx.sub(x, sx.var(1)))))
    ends = (-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0)
    ivs = [(a, b) for a in ends for b in ends if a <= b]
    boxes = np.array([[a, b] for a in ivs for b in ivs][:128])
    boxes = boxes.transpose(1, 2, 0).copy()
    zeros, refuted = set(), 0
    for lhs, rhs_list in ((lhs, (0.0, -0.0, 5e-324, -5e-324)),
                          (sx.sub(x, x), (-1.5,))):
        atom = dsat._Atom(dsat.Constraint(lhs, "<=", 0.0))
        full = _full_plan(atom.tape)
        for rel, rhs in itertools.product(dsat.RELATIONS, rhs_list):
            target = dsat._target_interval(rel, rhs)
            for cols in [slice(None)] + [slice(b, b + 1) for b in range(128)]:
                before = boxes[:, :, cols].copy()
                live = np.ones(before.shape[2], bool)
                vals = sx._interval_eval_raw(atom.tape, before)
                got, want = before.copy(), before.copy()
                mask = dsat._contract(atom.plan, vals, got, target)
                ref = _reference_contract(full, vals, want, target, live)
                assert mask.tolist() == ref.tolist(), (rel, rhs, cols)
                assert (got[:, :, ~ref].tobytes()
                        == want[:, :, ~ref].tobytes()), (rel, rhs, cols)
                zeros |= {_bits(v) for v in got[:, :, ~ref].ravel()
                          if v == 0.0}
                refuted += int(ref.sum())
    assert zeros == {_bits(0.0), _bits(-0.0)} and refuted > 0


@np.errstate(all="ignore")
def test_hc4_on_live_columns_matches_the_full_sweep():
    """prune sweeps HC4 over the live columns only (to contract, and not
    refuted by a conjunct before) and writes them back.  On conjunctions
    of two or three atoms over criterion 06's and the extreme boxes, with
    status-only columns mixed in, it gives the status and the bytes of
    every column that a sweep of all columns gives, when the sweep keeps
    the columns that are not live as they were."""
    before = _reference_boxes()
    width = before.shape[2]
    rng = np.random.default_rng(2222)
    lhs = _reference_lhs()
    partial_passes = 0
    for _ in range(60):
        parts = [dsat.Constraint(lhs[i], rel, float(rng.uniform(-2.0, 2.0)))
                 for i, rel in zip(rng.integers(len(lhs), size=3),
                                   rng.choice(dsat.RELATIONS, size=3))]
        atoms = dsat._atoms(dsat.And(parts[:rng.integers(2, 4)]))
        contract = rng.random(width) < 0.75
        got, want = before.copy(), before.copy()
        status = dsat.prune(atoms, got, contract)
        false = np.zeros(width, bool)
        unknown = np.zeros(width, bool)
        for atom in atoms:
            vals = sx._interval_eval_raw(atom.tape, want)
            true, out = atom.status(vals)
            false |= out
            unknown |= ~true
            live = contract & ~false
            partial_passes += bool(live.any() and not live.all())
            swept = want.copy()
            false |= live & dsat._contract(atom.plan, vals, swept,
                                           atom.target)
            np.copyto(want, swept, where=live)
        if false.all():
            assert status is dsat.EMPTY
        else:
            assert status.tolist() == np.where(false, dsat.FALSE, np.where(
                unknown, dsat.UNKNOWN, dsat.TRUE)).tolist()
        assert got.tobytes() == want.tobytes()
    assert partial_passes > 50


def test_hc4_steps_of_the_nn10_decrease_atom():
    """nn10's recorded decrease atom: the 32 plan entries make 8 steps,
    one per depth and role in that order, each entry in the target
    array's column of its place in that order, and the var entries are
    met in preorder."""
    cert = certify.load_certificate(
        Path(__file__).parent / "data" / "nn10_seed1_certificate.json")
    field = plant.dubins_closed_loop(
        plant.DubinsParams(), nn.load(cli.bundled_controller_path(10)))
    plan = dsat._Atom(dsat.Constraint(
        certify.lie_derivative(cert.candidate, field), ">=", -1e-6)).plan
    depth = []
    for e in plan:
        depth.append(depth[e[2]] + 1 if e[2] >= 0 else 0)
    order = sorted(range(len(plan)), key=lambda i: (depth[i], plan[i][1]))
    col = {i: j for j, i in enumerate(order)}
    assert len(plan) == 32 and len(plan.steps) == 8
    assert [(step[0], step[2] - step[1]) for step in plan.steps] == [
        (dsat._ROOT, 1), (dsat._ADD, 2), (dsat._MUL, 4), (dsat._ADD, 6),
        (dsat._NEG, 1), (dsat._ADD, 4), (dsat._MUL, 4), (dsat._MUL, 10)]
    for how, a, b, parents, sibs, slots in plan.steps:
        entries = order[a:b]
        assert [plan[i][0] for i in entries] == slots.tolist()
        assert [col.get(plan[i][2], 0) for i in entries] == parents.tolist()
    assert plan.vars == [(col[i], e[4]) for i, e in enumerate(plan)
                         if e[4] >= 0]
    assert [idx for _, idx in plan.vars] == [0, 1, 0, 1]


def test_hc4_plan_of_the_nn10_decrease_atom():
    """nn10's recorded decrease atom (config seed 1): the plan visits the 32
    occurrences of the reference plan with its roles, parents and
    siblings, every operand of a product with the one product role, and
    the 12 occurrences where the walk ends (constants, sin, cos and the
    network's row) are leaves; the tape runs its 7 constant products in
    two products each."""
    cert = certify.load_certificate(
        Path(__file__).parent / "data" / "nn10_seed1_certificate.json")
    field = plant.dubins_closed_loop(
        plant.DubinsParams(), nn.load(cli.bundled_controller_path(10)))
    atom = dsat._Atom(dsat.Constraint(
        certify.lie_derivative(cert.candidate, field), ">=", -1e-6))
    full = _full_plan(atom.tape)
    assert len(full) == len(atom.plan) == 32
    assert [e[:4] + (max(e[4], -1),) for e in atom.plan] == full
    leaves = [atom.tape.nodes[e[0]][0] for e in atom.plan
              if e[4] == dsat._LEAF]
    assert sorted(set(leaves)) == ["const", "cos", "row", "sin"]
    assert len(leaves) == 12
    assert [fn.func for _, fn, _, _ in atom.tape.code
            if isinstance(fn, partial)].count(iv._vmulc) == 7


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
        lo, hi = sx.interval_eval(e, sx.box((0.0, 1.0)))
        assert lo <= 3000.0 and 3001.0 <= hi
        assert hi - lo < 1.0 + 1e-8  # one ulp out per add
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
        lambda e: sx.to_sexpr(e) == ("(add " * 3000 + "(var 0)"
                                     + " (const 1.0))" * 3000),
        lambda e: e == _chain() and e != sx.add(_chain(2999), sx.const(2.0)),
        lambda e: hash(e) == hash(_chain()),
        lambda e: repr(e).startswith("Expr(" + "(add " * 3000),
    ], ids=["arity", "to_sexpr", "eq", "hash", "repr"])
    def test_walks_are_iterative(self, walk):
        assert walk(_chain())

    def test_thousand_neuron_closed_loop(self):
        net = train.widen_controller(nn.load(cli.bundled_controller_path(100)),
                                     1000, seed=0)
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        batch = simulate.simulate(field, [[0.1, 0.05], [-0.2, 0.1]], 10.0,
                                  0.01)
        assert batch.states.shape == (1001, 2, 2)
        assert np.isfinite(batch.states).all()
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
        moved = sx.net(net, 1, (x, sx.sin(x)))
        assert sx.eval_expr(moved, [0.3]) == nn.forward(
            net, [0.3, math.sin(0.3)])[1]
        folded = sx.net(net, 1, (sx.const(0.3), sx.sin(sx.const(0.3))))
        assert folded.op == "const"
        assert folded.val == nn.forward(net, [0.3, math.sin(0.3)])[1]
        for bad in ((2, (x, y)), (0, (x,))):
            with pytest.raises(ValueError):
                sx.net(net, *bad)

    def test_equality_builds_no_tape(self, monkeypatch):
        # == compares the lowered nodes; a Tape would prepare every
        # network's layers, which it does not need
        net = _layered_net(np.random.default_rng(1), (2, 3, 2),
                           ("tanh", "identity"))
        x, y = sx.var(0), sx.var(1)
        e = sx.net(net, 1, (x, y))

        def refused(network):
            raise AssertionError("a Tape was built")
        monkeypatch.setattr(sx, "_net_layers", refused)
        assert e == sx.net(net, 1, [x, y]) and e != sx.net(net, 0, (x, y))
        assert sx.div(e, sx.const(0.0)) == sx.div(e, sx.const(0.0))
        assert sx.div(e, sx.const(-0.0)) != sx.div(e, sx.const(0.0))
        assert sx.const(-0.0) != sx.const(0.0)

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
                got_lo, got_hi = sx.interval_eval(sx.net(net, k, x), bx)
                ref_lo, ref_hi = sx.interval_eval(unrolled[k], bx)
                got_w, ref_w = got_hi - got_lo, ref_hi - ref_lo
                assert got_lo <= exact[k] <= got_hi
                assert got_w <= 1.01 * ref_w + 1e-9
                assert ref_w <= 1.01 * got_w + 1e-9

    def test_thousand_neuron_eval_at_and_text(self):
        net = train.widen_controller(nn.load(cli.bundled_controller_path(100)),
                                     1000, seed=0)
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        d_dot = plant.dubins_error_field(plant.DubinsParams(),
                                         [sx.var(2)])[0]
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
    out = iv._inet(iv._net_layers(net), np.array([lo, hi]).T[:, :, None])
    out = out[:, :, 0].tolist()
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


def _tanh_points(rng):
    """Inputs for the tanh kernel: every grid point and cell edge k/128 ±
    1/256 on [0, 20] with the floats on either side, tiny and subnormal
    values, ±0, the saturation edge, ±inf and 1e308, each with both signs;
    and 10^5 uniform points of [-25, 25]."""
    edges = np.arange(-1, 2561) / 128.0 + 1.0 / 256.0
    grid = np.arange(2561) / 128.0
    special = [0.0, 5e-324, 1e-310, 2.0 ** -1022, 1e-200, 2.0 ** -30, 1e-8,
               19.1, 19.99, 20.0, math.nextafter(20.0, 0.0),
               math.nextafter(20.0, 30.0), 20.0 + 1.0 / 256.0, 1e308,
               sys.float_info.max, math.inf]
    x = np.concatenate((edges, np.nextafter(edges, -1.0),
                        np.nextafter(edges, 30.0), grid, special))
    return np.concatenate((x, -x, rng.uniform(-25.0, 25.0, 100_000)))


def test_tanh_kernel_mpmath():
    """_inet's tanh rows, interval._ntanh moved out by _TANH_SLACK and
    clipped, contain tanh in 200-bit mpmath at every point of
    _tanh_points; the table entries lie within 2 ulps (and 2^-52) of
    tanh; NaN stays NaN; no RuntimeWarning."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        for k, t in enumerate(iv._TANH_TABLE.tolist()):
            err = abs(t - mpmath.tanh(mpmath.mpf(k) / 128))
            assert err <= 2 * math.ulp(t) and err <= 2.0 ** -52, k
    x = _tanh_points(np.random.default_rng(2107))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = iv._ntanh(np.array([x, x])) + iv._TANH_SLACK
        assert np.isnan(iv._ntanh(np.array([math.nan, -math.nan]))).all()
    rows = np.minimum(np.maximum(rows, -1.0), 1.0)
    assert x.size > 100_000
    with mpmath.workprec(200):
        outside = [z for z, lo, hi in zip(x.tolist(), *rows.tolist())
                   if not lo <= mpmath.tanh(z) <= hi]
    assert outside == []


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
            lambda u: plant.dubins_error_field(plant.DubinsParams(), u),
            output(), _layered_net(rng, (2, 3, 1), ("tanh", "tanh")))
        _assert_field_matches_reference(field, rng)

    @pytest.mark.parametrize("neurons,speed", [
        (10, 1.0), (100, 1.0), (10, 2.0)], ids=["nn10", "nn100", "speed-2"])
    def test_bundled_loops_match_reference(self, neurons, speed):
        # each layer's dot(w, x, h) has the bits of the reference's w @ x
        # on this BLAS; the field's -1 * (x * c) folds at speed 1 only
        field = plant.dubins_closed_loop(
            plant.DubinsParams(speed=speed),
            nn.load(cli.bundled_controller_path(neurons)))
        _assert_field_matches_reference(field, np.random.default_rng(17))

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
            lambda u: plant.dubins_error_field(plant.DubinsParams(), u),
            [sx.var(1), sx.var(0)], net)
        cand = lpgen.candidate_from([1.0, 0.5, 2.0, 0.1, -0.1, 0.0],
                                    lpgen.QuadraticTemplate(2))
        p = np.zeros((2, 3))
        for run, out in ((field.batched, np.empty((2, 3))),
                         (swapped.batched, np.empty((2, 3))),
                         (sx.compile_expr(certify.lie_derivative(
                             cand, field)), None)):
            for code in (run.__code__, run.bind(3).__code__,
                         run.bind(3)(p, out).__code__):
                assert fast_names(code, "STORE") <= fast_names(code, "LOAD")

    def test_registers_do_not_leak_between_widths(self):
        # widths 40, 2 and 40 again, through run and through bound steps
        # used in turn: each equals the reference on its own points
        net = nn.load(cli.bundled_controller_path(10))
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        rng = np.random.default_rng(16)
        xs = [rng.uniform(-1.0, 1.0, size=(2, w)) for w in (40, 2, 40)]
        want = [np.array([_ref_array_eval(c, x) for c in field.components])
                for x in xs]
        assert all(_same_bits(field.batched(x), w) for x, w in zip(xs, want))
        steps = {w: field.batched.bind(w) for w in (40, 2)}
        for x, w in zip(xs, want):
            out = np.full_like(w, np.nan)
            assert steps[x.shape[1]](x, out)() is out and _same_bits(out, w)

    def test_negated_products_fold(self, monkeypatch):
        # -1 * (x * c) runs as one multiply by -c, of the same bits at
        # +-0, +-inf and on overflow; not when x * c is read again or is
        # an output, nor for another factor, such as the -2 at speed 2
        sources = []

        def compiled(source):
            sources.append(source)
            return compile(source, "<program>", "exec")
        monkeypatch.setattr(sx, "_compiled", compiled)
        x = np.array([[0.0, -0.0, 1.5, -1.5, 1e10, -1e10, math.inf,
                       -math.inf]])
        m1, x0 = sx.const(-1.0), sx.var(0)
        cases = []      # (expressions, multiplies in the program)
        for c in (3.0, -3.0, 1e300, -1e300):
            for y in (sx.mul(x0, sx.const(c)), sx.mul(sx.const(c), x0)):
                cases += [([sx.mul(m1, y)], 1), ([sx.mul(y, m1)], 1),
                          ([sx.add(sx.mul(m1, y), y)], 2),
                          ([sx.mul(m1, y), y], 2),
                          ([sx.mul(sx.const(-2.0), y)], 2)]
        with np.errstate(all="ignore"):    # inf - inf, overflow
            for exprs, multiplies in cases:
                sources.clear()
                got = sx.array_program(exprs, rows=True)(x)
                want = np.array([_ref_array_eval(e, x) for e in exprs])
                assert _same_bits(got, want), exprs
                assert sources[0].count("multiply(") == multiplies
                # no number is an operand in the text, -c neither
                assert not re.search(r"[(,]\s*[-+.\d]", sources[0])
        results = sx.compile_expr(cases[0][0][0])(x)    # -1 * (x * 3)
        assert np.copysign(1.0, results[:2]).tolist() == [-1.0, 1.0]
        assert results[-2:].tolist() == [-math.inf, math.inf]

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
