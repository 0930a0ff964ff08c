"""LP constraint generation and the simplex solver."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from barricade import certify
from barricade import cli
from barricade import lpgen
from barricade import network as nn
from barricade import plant
from barricade import simulate as sim
from barricade import symexpr as sx

import lp_reference

# (coeffs, expr, grad) text written by the term-by-term symbolic
# differentiator that closed-form gradients replaced: arity 1-4, with
# coefficients 0, -0.0, 1 and 0.5 among random ones.
CANDIDATE_TEXT = json.loads(
    (Path(__file__).parent / "data" / "candidate_text.json").read_text())


def _lp(rows, rhs, objective):
    """rows @ x <= rhs, maximizing objective . x."""
    return lpgen.LPProblem(np.asarray(rows, float), np.asarray(rhs, float),
                           np.asarray(objective, float))


def _trace(states, derivs):
    """One trace: its (k, n) states and derivatives."""
    return np.asarray(states, float), np.asarray(derivs, float)


def _batch(traces):
    """Traces of one length as one simulate.Batch, member b being
    traces[b]."""
    states, derivs = (np.stack(a, axis=2) for a in zip(*traces))
    return sim.Batch(0.01 * np.arange(len(states)), states, derivs)


def _points(traces, subsample, region=None):
    """lpgen.lp_points of each trace, as a batch of one."""
    return [lpgen.lp_points(_batch([tr]), subsample, region)
            for tr in traces]


def _reference_lp(traces, tmpl, eps_pos, eps_dec, subsample, region=None):
    """build_constraints expanded by hand, one point at a time."""
    heads, points = [], []
    for states, derivs in traces:
        for k in range(0, len(states), subsample):
            x, dx = states[k], derivs[k]
            if region is not None and (not region[0].contains(x)
                                       or region[1].contains(x)):
                continue
            (heads if k == 0 else points).append((x, dx))
    if len(points) > 4000:
        points = points[::int(np.ceil(len(points) / 4000))]
    rows, rhs = [], []
    for x, dx in heads + points:
        value = [x[i] * x[j] if i == j else 2.0 * x[i] * x[j]
                 for i, j in tmpl.pairs] + list(x) + [1.0]
        decrease = [2.0 * x[i] * dx[j] if i == j
                    else 2.0 * (x[i] * dx[j] + x[j] * dx[i])
                    for i, j in tmpl.pairs] + list(dx) + [0.0]
        rows.append([-v for v in value] + [1.0])     # v(x) - s >= eps_pos
        rhs.append(-eps_pos)
        rows.append(decrease + [1.0])                # L(x) + s <= -eps_dec
        rhs.append(-eps_dec)
    n = tmpl.n_unknowns + 1
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [1.0 if i < n - 1 else 10.0] * 2
    return np.array(rows), np.array(rhs), len(heads), len(points)


class TestTemplateRows:
    def test_positivity_row_at_unit_point(self):
        tmpl = lpgen.QuadraticTemplate(2)
        value, _ = tmpl.monomials(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        # slots: P00, P01, P11, q0, q1, c
        assert list(value[0]) == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]

    def test_decrease_row_hand_expansion(self):
        tmpl = lpgen.QuadraticTemplate(2)
        _, decrease = tmpl.monomials(np.array([[1.0, 0.0]]),
                                     np.array([[-1.0, 0.0]]))
        assert list(decrease[0]) == [-2.0, 0.0, 0.0, -1.0, 0.0, 0.0]

    def test_constraint_count(self):
        field = plant.VectorField(
            2, (sx.neg(sx.var(0)), sx.neg(sx.var(1))))
        batch = sim.simulate(field, [[1.0, 0.5]], 1.0, 0.01)
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints([lpgen.lp_points(batch, 10)], tmpl,
                                     1e-3, 1e-3)
        n_pts = len(range(0, 101, 10))
        # 2 rows per point, 2 box rows per coefficient, 2 margin rows
        assert len(lp.rows) == 2 * n_pts + 2 * tmpl.n_unknowns + 2

    def test_linearity_cross_check(self):
        rng = np.random.default_rng(0)
        tmpl = lpgen.QuadraticTemplate(2)
        for _ in range(100):
            coeffs = rng.uniform(-1, 1, size=tmpl.n_unknowns)
            cand = lpgen.candidate_from(coeffs, tmpl)
            x = rng.uniform(-2, 2, size=2)
            dx = rng.uniform(-2, 2, size=2)
            value, decrease = tmpl.monomials(x[None], dx[None])
            assert abs(value[0] @ coeffs - cand.value(x)) < 1e-12
            grad = [sx.eval_expr(g, x) for g in cand.grad]
            assert abs(decrease[0] @ coeffs - np.dot(grad, dx)) < 1e-12


class TestBuildConstraints:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("subsample", [1, 3, 10])
    def test_equals_hand_expansion(self, arity, subsample):
        rng = np.random.default_rng(arity * 100 + subsample)
        traces = [_trace(rng.uniform(-1.5, 1.5, size=(k, arity)),
                         rng.uniform(-2, 2, size=(k, arity)))
                  for k in (0, 1, 37, 120, 9)]
        region = (sx.box(*[(-1.0, 1.0)] * arity),
                  sx.box(*[(-0.5, 0.5)] * arity))
        tmpl = lpgen.QuadraticTemplate(arity)
        for reg in (None, region):
            lp = lpgen.build_constraints(_points(traces, subsample, reg),
                                         tmpl, 1e-3, 2e-3)
            rows, rhs, _, _ = _reference_lp(traces, tmpl, 1e-3, 2e-3,
                                            subsample, reg)
            assert lp.rows.tobytes() == rows.tobytes()
            assert lp.rhs.tobytes() == rhs.tobytes()
            assert list(lp.objective) == [0.0] * tmpl.n_unknowns + [1.0]

    def test_region_filter(self):
        # heads and points inside X0 or outside the safe rectangle are
        # dropped; both boxes are closed
        region = (sx.box((-1.0, 1.0), (-1.0, 1.0)),
                  sx.box((-0.1, 0.1), (-0.1, 0.1)))
        states = [[[0.05, 0.0], [0.5, 0.5], [0.1, 0.1], [1.0, -1.0]],
                  [[2.0, 0.0], [0.0, 1.5], [-0.3, 0.2]],
                  [[-1.0, 0.7], [0.0, -0.1], [np.nan, 0.0]]]
        traces = [_trace(s, np.ones((len(s), 2))) for s in states]
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints(_points(traces, 1, region), tmpl, 1e-3,
                                     1e-3)
        kept = [[-1.0, 0.7], [0.5, 0.5], [1.0, -1.0], [-0.3, 0.2]]
        assert len(lp.rows) == 2 * len(kept) + 2 * 7
        value, _ = tmpl.monomials(np.array(kept), np.ones((4, 2)))
        assert np.array_equal(lp.rows[0:8:2, :-1], -value)
        rows, rhs, n_heads, n_points = _reference_lp(
            traces, tmpl, 1e-3, 1e-3, 1, region)
        assert (n_heads, n_points) == (1, 3)
        assert lp.rows.tobytes() == rows.tobytes()
        assert lp.rhs.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("lengths, n_points", [
        ((2001, 2001), 4000),      # at the cap: every point kept
        ((2001, 2002), 2001),      # 4,001 points: every second one
        ((1, 4500, 4502), 3000),   # 9,000 points: every third one
    ])
    def test_stride_cap(self, lengths, n_points):
        rng = np.random.default_rng(sum(lengths))
        traces = [_trace(rng.uniform(-1, 1, size=(k, 2)),
                         rng.uniform(-1, 1, size=(k, 2))) for k in lengths]
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints(_points(traces, 1), tmpl, 1e-3, 1e-3)
        rows, rhs, n_heads, n_ref = _reference_lp(traces, tmpl, 1e-3, 1e-3,
                                                  1)
        assert (n_heads, n_ref) == (len(lengths), n_points)
        assert len(lp.rows) == 2 * (n_heads + n_points) + 2 * 7
        # the heads lead, ahead of the strided points
        heads = np.array([states[0] for states, _ in traces])
        value, _ = tmpl.monomials(heads, np.zeros_like(heads))
        assert np.array_equal(lp.rows[0:2 * n_heads:2, :-1], -value)
        assert lp.rows.tobytes() == rows.tobytes()
        assert lp.rhs.tobytes() == rhs.tobytes()

    def test_row_order(self):
        # per point: value row, then decrease row; heads first, then the
        # other points in trace order; then the box and the margin rows
        traces = [_trace([[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]),
                  _trace([[0.25, 0.0], [0.0, 0.25]],
                         [[2.0, 0.0], [0.0, 2.0]])]
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints(_points(traces, 1), tmpl, 1e-3, 2e-3)
        order = [([0.5, 0.0], [1.0, 0.0]), ([0.25, 0.0], [2.0, 0.0]),
                 ([0.0, 0.5], [0.0, 1.0]), ([0.0, 0.25], [0.0, 2.0])]
        for k, (x, dx) in enumerate(order):
            value, decrease = tmpl.monomials(np.array([x]), np.array([dx]))
            assert list(lp.rows[2 * k]) == list(-value[0]) + [1.0]
            assert list(lp.rows[2 * k + 1]) == list(decrease[0]) + [1.0]
        assert list(lp.rhs[:8]) == [-1e-3, -2e-3] * 4
        box = lp.rows[8:]
        for i in range(7):
            assert list(box[2 * i]) == list(np.eye(7)[i])
            assert list(box[2 * i + 1]) == list(-np.eye(7)[i])
        assert list(lp.rhs[8:]) == [1.0] * 12 + [10.0] * 2

    @pytest.mark.parametrize("subsample", [0, -1])
    def test_subsample_below_one_rejected(self, subsample):
        traces = [_trace([[0.5, 0.5], [0.4, 0.4]], [[-1.0, -1.0]] * 2)]
        with pytest.raises(ValueError, match="subsample"):
            _points(traces, subsample)

    def test_three_batches_equal_the_reference(self):
        # the rows that find_generator builds from each batch's points,
        # derived once: 3 x 30 traces of 160 states with subsample 2 keep
        # 61 heads and 4,823 other points in the region, strided by 2
        rng = np.random.default_rng(3)
        batches = [[_trace(rng.uniform(-1.2, 1.2, size=(160, 2)),
                           rng.uniform(-2.0, 2.0, size=(160, 2)))
                    for _ in range(30)] for _ in range(3)]
        region = (sx.box((-1.0, 1.0), (-1.0, 1.0)),
                  sx.box((-0.1, 0.1), (-0.1, 0.1)))
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints(
            [lpgen.lp_points(_batch(b), 2, region) for b in batches],
            tmpl, 1e-3, 2e-3)
        rows, rhs, n_heads, n_points = _reference_lp(
            [tr for b in batches for tr in b], tmpl, 1e-3, 2e-3, 2, region)
        assert (n_heads, n_points) == (61, 2412)
        assert lp.rows.tobytes() == rows.tobytes()
        assert lp.rhs.tobytes() == rhs.tobytes()


def _stacked_grid(traces, read):
    """trace_grid as it stacked per-trace (k, n) arrays, trace by trace."""
    return np.array([[states[read] for states, _ in traces],
                     [derivs[read] for _, derivs in traces]])


def _stacked_stiffness(traces):
    """simulate.stiffness as it stacked per-trace (k, n) arrays."""
    states = np.stack([states for states, _ in traces], axis=2)
    derivs = np.stack([derivs for _, derivs in traces], axis=2)
    dx = np.linalg.norm(np.diff(states, axis=0), axis=1)
    df = np.linalg.norm(np.diff(derivs, axis=0), axis=1)
    long = dx > sim._SQRT_EPS * (1.0 + np.linalg.norm(states[:-1], axis=1))
    return float(np.max(df[long] / dx[long])) if long.any() else 0.0


class TestBatchLayout:
    """The readers of a Batch slice its (k, n, B) store in place, and give
    the bytes of the per-trace formulas they replaced, in the same
    trace-major order, so the LP's rows do not move."""

    @pytest.mark.parametrize("count", [40, 1])
    def test_readers_equal_the_stacked_formulas(self, count):
        system = certify.System(nn.load(cli.bundled_controller_path(10)))
        spec = system.spec
        batch = sim.seed_traces(system.field, spec.safe_rect, count,
                                certify.SIM_DURATION, certify.SIM_STEP, 0,
                                exclude=spec.x0)
        traces = [(batch.states[:, :, b], batch.derivs[:, :, b])
                  for b in range(count)]
        assert (np.float64(sim.stiffness(batch)).tobytes()
                == np.float64(_stacked_stiffness(traces)).tobytes())
        for read in (slice(None), slice(None, None, certify.SUBSAMPLE),
                     slice(certify.SUBSAMPLE // 2, None, certify.SUBSAMPLE)):
            grid = lpgen.trace_grid(batch, read)
            assert grid.shape == (2, count, len(batch.times[read]), 2)
            assert grid.tobytes() == _stacked_grid(traces, read).tobytes()
        region = (spec.safe_rect, spec.x0)
        grid = _stacked_grid(traces, slice(None, None, certify.SUBSAMPLE))
        keep = lpgen.in_region(grid[0], region)
        want = (grid[:, :, :1][:, keep[:, :1]],
                grid[:, :, 1:][:, keep[:, 1:]])
        got = lpgen.lp_points(batch, certify.SUBSAMPLE, region)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got[0].shape[1] == count


class TestSolve:
    def test_single_bound(self):
        lp = _lp([[1.0]], [1.0], [1.0])
        sol = lpgen.solve_lp(lp)
        assert abs(sol[0] - 1.0) < 1e-9

    def test_infeasible(self):
        # x >= 1 and x <= 0
        lp = _lp([[-1.0], [1.0]], [-1.0, 0.0], [1.0])
        assert lpgen.solve_lp(lp) is lpgen.INFEASIBLE

    def test_unbounded(self):
        # x >= 0 only
        lp = _lp([[-1.0]], [0.0], [1.0])
        with pytest.raises(lpgen.LPUnboundedError):
            lpgen.solve_lp(lp)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        rows, rhs = [], []
        for _ in range(40):
            rows.append(rng.uniform(-1, 1, size=3))
            rhs.append(float(rng.uniform(1, 2)))
        lp = _lp(rows + list(-np.eye(3)), rhs + [5.0] * 3, [1.0, 1.0, 1.0])
        a = lpgen.solve_lp(lp)
        b = lpgen.solve_lp(lp)
        assert np.array_equal(a, b)

    def test_stable_contraction_field(self):
        # xdot = -x from several starts: v = c x^2 with c > 0 must emerge
        field = plant.VectorField(1, (sx.neg(sx.var(0)),))
        batch = sim.simulate(field, [[1.0], [-1.0], [0.5], [-0.5]], 2.0,
                             0.01)
        tmpl = lpgen.QuadraticTemplate(1)
        lp = lpgen.build_constraints([lpgen.lp_points(batch, 10)], tmpl,
                                     1e-3, 1e-3)
        sol = lpgen.solve_lp(lp)
        assert sol is not lpgen.INFEASIBLE
        assert sol[-1] > 0          # positive margin
        assert sol[0] > 0           # P coefficient on x^2
        assert lp.check_solution(sol) >= -1e-9

    def test_resubstitution_slack(self):
        # every non-INFEASIBLE solution satisfies all rows within 1e-9
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(50):
            n = int(rng.integers(2, 5))
            rows, rhs = [], []
            for _ in range(int(rng.integers(4, 30))):
                rows.append(rng.uniform(-1, 1, size=n))
                rhs.append(float(rng.uniform(0.5, 2)))
            for e in np.eye(n):
                rows += [e, -e]
                rhs += [3.0, 3.0]
            lp = _lp(rows, rhs, rng.uniform(-1, 1, size=n))
            sol = lpgen.solve_lp(lp)
            if sol is lpgen.INFEASIBLE:
                continue
            solved += 1
            assert lp.check_solution(sol) >= -1e-9
        assert solved > 10


def _criterion_09_lps():
    """The random LPs of criterion 09 (test_acceptance), same generator."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rows, rhs = [], []
        for _ in range(int(rng.integers(3, 40))):
            rows.append(rng.uniform(-1, 1, size=n))
            rhs.append(float(rng.uniform(0.2, 2.0)))
        for e in np.eye(n):
            rows += [e, -e]
            rhs += [2.0, 2.0]
        yield _lp(rows, rhs, rng.uniform(-1, 1, size=n))


def _assert_optimal(lp, x, basis, tol=1e-9):
    """Optimality of solve_lp's answer x from its final basis B, with no
    other solver: x is primal feasible, y_B = A_B^-T c is dual feasible,
    and c.x equals b_B.y_B."""
    assert lp.check_solution(x) >= -1e-9
    y = np.linalg.solve(lp.rows[basis].T, lp.objective)
    assert y.min() >= -tol
    assert lp.objective @ x == pytest.approx(lp.rhs[basis] @ y, abs=tol)


@functools.lru_cache(maxsize=None)
def _three_state_lp():
    """The seed LP of the Dubins loop with a first-order steering lag,
    w' = 5 (u - w), the bundled nn10 fed (d, theta): 3,198 x 11."""
    d_dot = plant.dubins_error_field(plant.DubinsParams(), [sx.var(2)])[0]
    w = sx.var(2)
    f = plant.close_loop(
        lambda u: [d_dot, sx.neg(w), sx.mul(sx.const(5.0), sx.sub(u[0], w))],
        [sx.var(0), sx.var(1)], nn.load(cli.bundled_controller_path(10)))
    x0 = sx.box(*[(-0.1, 0.1)] * 3)
    safe_rect = sx.box((-1.0, 1.0), (-math.pi / 2, math.pi / 2), (-3.0, 3.0))
    batch = sim.seed_traces(f, safe_rect, 20, certify.SIM_DURATION,
                            certify.SIM_STEP, 1, exclude=x0)
    return lpgen.build_constraints(
        [lpgen.lp_points(batch, certify.SUBSAMPLE, (safe_rect, x0))],
        lpgen.QuadraticTemplate(3), certify.EPS_POS, certify.EPS_DEC)


def _chvatal_cycling_start():
    """Chvatal's cycling example (Linear Programming, 1983, ch. 3) as a
    phase-2 start from the slack basis: max 10x1 - 57x2 - 9x3 - 24x4
    subject to 0.5x1 - 5.5x2 - 2.5x3 + 9x4 <= 0, 0.5x1 - 1.5x2 - 0.5x3 +
    x4 <= 0, x1 <= 1, x >= 0, as the columns, costs, [B^-1 | beta] and
    basis of _pivot_until_optimal.  The optimum is 1, at x1 = x3 = 1."""
    mat = np.array([[0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                    [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    cost = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
    inv = np.hstack([np.eye(3), [[0.0], [0.0], [1.0]]])
    return mat, cost, inv, np.array([4, 5, 6])


class TestPricing:
    @pytest.mark.parametrize("run", [lpgen.DEGENERATE_RUN, 0],
                             ids=["dantzig", "bland-only"])
    def test_criterion_09_lps_optimal(self, run, monkeypatch):
        monkeypatch.setattr(lpgen, "DEGENERATE_RUN", run)
        solved = 0
        for lp in _criterion_09_lps():
            x, basis = lpgen._solve(lp)
            if x is not lpgen.INFEASIBLE:
                _assert_optimal(lp, x, basis)
                solved += 1
        assert solved >= 20

    def test_three_state_lp(self, monkeypatch):
        lp = _three_state_lp()
        assert lp.rows.shape == (3198, 11)
        pivots = []
        pivot = lpgen._pivot
        monkeypatch.setattr(lpgen, "_pivot",
                            lambda *a: (pivots.append(1), pivot(*a)))
        x, basis = lpgen._solve(lp)
        _assert_optimal(lp, x, basis)
        assert len(pivots) < 1000
        assert x[-1] > 0

    def test_dantzig_alone_cycles(self, monkeypatch):
        # without the fallback the most-negative rule cycles through six
        # degenerate pivots forever
        monkeypatch.setattr(lpgen, "DEGENERATE_RUN", lpgen.MAX_PIVOTS)
        monkeypatch.setattr(lpgen, "MAX_PIVOTS", 100)
        with pytest.raises(lpgen.PivotLimitError):
            lpgen._pivot_until_optimal(*_chvatal_cycling_start())
        assert issubclass(lpgen.PivotLimitError, RuntimeError)

    @pytest.mark.parametrize("run", [lpgen.DEGENERATE_RUN, 0],
                             ids=["fallback", "bland-only"])
    def test_bland_fallback_ends_the_cycle(self, run, monkeypatch):
        monkeypatch.setattr(lpgen, "DEGENERATE_RUN", run)
        mat, cost, inv, basis = _chvatal_cycling_start()
        assert lpgen._pivot_until_optimal(mat, cost, inv, basis)
        assert -(cost[basis] @ inv[:, -1]) == 1.0
        assert sorted(zip(basis, inv[:, -1])) == [(0, 1.0), (2, 1.0),
                                                  (4, 2.0)]


def _answer(solve, lp):
    """solve(lp)'s basis, in order, and the bytes of its x, or the class
    of the error it raised."""
    try:
        x, basis = solve(lp)
    except (lpgen.LPUnboundedError, lpgen.PivotLimitError) as exc:
        return type(exc)
    return basis.tolist(), None if x is lpgen.INFEASIBLE else x.tobytes()


class TestDenseReference:
    """_solve pivots through the dense tableau's bases, so it returns the
    reference's basis and x, bit for bit."""

    def test_criterion_09_and_three_state_lps(self):
        for lp in [*_criterion_09_lps(), _three_state_lp()]:
            assert _answer(lpgen._solve, lp) == _answer(lp_reference.solve,
                                                        lp)

    @pytest.mark.parametrize("rows, rhs, objective, want", [
        # the dual's equation for x2 is 0 = 0: its artificial stays, its
        # row is dropped, and x comes from lstsq on the one active row
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], [1.0, 0.0],
         ([0], np.array([1.0, 0.0]).tobytes())),
        # phase 1 ends with an artificial in the basis at zero, which
        # leaves at the first column off zero in its row
        ([[-1.0, 0.0], [-1.0, 1.0]], [2.0, 1.0], [-1.0, 1.0],
         ([1, 0], np.array([-2.0, -1.0]).tobytes())),
        ([[-1.0], [1.0]], [-1.0, 0.0], [1.0], ([1], lpgen.INFEASIBLE)),
        ([[-1.0]], [0.0], [1.0], lpgen.LPUnboundedError),
    ], ids=["artificial-stays", "artificial-leaves", "infeasible",
            "unbounded"])
    def test_small_lps(self, rows, rhs, objective, want):
        lp = _lp(rows, rhs, objective)
        assert _answer(lpgen._solve, lp) == want
        assert _answer(lp_reference.solve, lp) == want

    def test_ratio_tie_goes_to_the_smallest_basis_index(self):
        # y0 enters with column (1, 1) at rows of ratios 1 + 5e-13 and 1:
        # within 1e-12 they tie, and the row of basis index 1 leaves
        mat = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        rhs = np.array([[1.0 + 5e-13], [1.0]])
        cost = np.array([-1.0, 0.0, 0.0])
        inv, basis = np.hstack([np.eye(2), rhs]), np.array([1, 2])
        assert lpgen._pivot_until_optimal(mat, cost, inv, basis)
        tab, ref_basis = np.hstack([mat, rhs]), np.array([1, 2])
        assert lp_reference._pivot_until_optimal(tab, np.append(cost, 0.0),
                                                 ref_basis, 3)
        assert basis.tolist() == ref_basis.tolist() == [0, 2]

    def test_cegis_rounds(self, monkeypatch):
        # every round's LP of the cegis-nn10 benchmark pool: the rows are
        # the reference build's, and the answer the reference solver's
        built = []
        build = lpgen.build_constraints

        def recording_build(points, *args):
            built.append((list(points), args, build(points, *args)))
            return built[-1][2]

        monkeypatch.setattr(lpgen, "build_constraints", recording_build)
        net = nn.load(cli.bundled_controller_path(10))
        f = plant.dubins_closed_loop(plant.DubinsParams(), net)
        for seed in (0, 2, 3):
            out = certify.verify(certify.default_spec(), f,
                                 certify.CertifyConfig(seed=seed,
                                                       n_seed_traces=2))
            assert isinstance(out, certify.Certificate)
        assert len(built) == 10
        for points, args, lp in built:
            ref = lp_reference.build_constraints(points, *args)
            assert lp.rows.tobytes() == ref.rows.tobytes()
            assert lp.rhs.tobytes() == ref.rhs.tobytes()
            assert lp.objective.tobytes() == ref.objective.tobytes()
            assert _answer(lpgen._solve, lp) == _answer(lp_reference.solve,
                                                        lp)


class TestCandidate:
    def test_identity_quadratic(self):
        tmpl = lpgen.QuadraticTemplate(2)
        cand = lpgen.candidate_from([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], tmpl)
        assert cand.value([1.0, 1.0]) == 2.0
        assert [sx.eval_expr(g, [1.0, 2.0]) for g in cand.grad] == [2.0, 4.0]
        assert sx.eval_expr(cand.expr, [0.5, -0.5]) == pytest.approx(0.5)

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(23)
        tmpl = lpgen.QuadraticTemplate(2)
        for _ in range(50):
            coeffs = rng.uniform(-1, 1, size=tmpl.n_unknowns)
            cand = lpgen.candidate_from(coeffs, tmpl)
            x = rng.uniform(-1, 1, size=2)
            h = 1e-6
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (cand.value(xp) - cand.value(xm)) / (2 * h)
                assert abs(sx.eval_expr(cand.grad[i], x) - fd) < 1e-6

    def test_expr_consistency(self):
        rng = np.random.default_rng(29)
        tmpl = lpgen.QuadraticTemplate(2)
        coeffs = rng.uniform(-1, 1, size=tmpl.n_unknowns)
        cand = lpgen.candidate_from(coeffs, tmpl)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            assert abs(sx.eval_expr(cand.expr, x) - cand.value(x)) < 1e-10

    def test_text_matches_recorded(self):
        assert len(CANDIDATE_TEXT) == 40
        for case in CANDIDATE_TEXT:
            arity = len(case["grad"])
            cand = lpgen.candidate_from(case["coeffs"],
                                        lpgen.QuadraticTemplate(arity))
            assert sx.to_sexpr(cand.expr) == case["expr"], case
            assert [sx.to_sexpr(g) for g in cand.grad] == case["grad"], case
