"""LP constraint generation and the simplex solver."""

import numpy as np
import pytest

from barricade import lpgen
from barricade import plant
from barricade import simulate as sim
from barricade import symexpr as sx


def _lp(rows, objective):
    n = len(objective)
    return lpgen.LPProblem(n, [(np.asarray(a, float), rel, float(b))
                               for a, rel, b in rows],
                           np.asarray(objective, float))


class TestTemplateRows:
    def test_positivity_row_at_unit_point(self):
        tmpl = lpgen.QuadraticTemplate(2)
        row = tmpl.value_row([1.0, 0.0])
        # slots: P00, P01, P11, q0, q1, c
        assert list(row) == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]

    def test_decrease_row_hand_expansion(self):
        tmpl = lpgen.QuadraticTemplate(2)
        row = tmpl.decrease_row([1.0, 0.0], [-1.0, 0.0])
        assert list(row) == [-2.0, 0.0, 0.0, -1.0, 0.0, 0.0]

    def test_constraint_count(self):
        field = plant.VectorField(
            2, (sx.neg(sx.var(0)), sx.neg(sx.var(1))))
        traces = [sim.simulate(field, [1.0, 0.5], 1.0, 0.01)]
        tmpl = lpgen.QuadraticTemplate(2)
        lp = lpgen.build_constraints(traces, tmpl, 1e-3, 1e-3, subsample=10)
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
            assert abs(tmpl.value_row(x) @ coeffs - cand.value(x)) < 1e-12
            grad = [sx.eval_expr(g, x) for g in cand.grad]
            assert abs(tmpl.decrease_row(x, dx) @ coeffs
                       - np.dot(grad, dx)) < 1e-12


class TestSolve:
    def test_single_bound(self):
        lp = _lp([([1.0], "<=", 1.0)], [1.0])
        sol = lpgen.solve_lp(lp)
        assert abs(sol[0] - 1.0) < 1e-9

    def test_infeasible(self):
        lp = _lp([([1.0], ">=", 1.0), ([1.0], "<=", 0.0)], [1.0])
        assert lpgen.solve_lp(lp) is lpgen.INFEASIBLE

    def test_unbounded(self):
        lp = _lp([([1.0], ">=", 0.0)], [1.0])
        with pytest.raises(lpgen.LPUnboundedError):
            lpgen.solve_lp(lp)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        rows = [(rng.uniform(-1, 1, size=3), "<=", float(rng.uniform(1, 2)))
                for _ in range(40)]
        lp = _lp(rows + [([1.0, 0, 0], ">=", -5.0), ([0, 1.0, 0], ">=", -5.0),
                         ([0, 0, 1.0], ">=", -5.0)], [1.0, 1.0, 1.0])
        a = lpgen.solve_lp(lp)
        b = lpgen.solve_lp(lp)
        assert np.array_equal(a, b)

    def test_stable_contraction_field(self):
        # xdot = -x from several starts: v = c x^2 with c > 0 must emerge
        field = plant.VectorField(1, (sx.neg(sx.var(0)),))
        traces = [sim.simulate(field, [x0], 2.0, 0.01)
                  for x0 in (1.0, -1.0, 0.5, -0.5)]
        tmpl = lpgen.QuadraticTemplate(1)
        lp = lpgen.build_constraints(traces, tmpl, 1e-3, 1e-3, subsample=10)
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
            rows = [(rng.uniform(-1, 1, size=n), "<=",
                     float(rng.uniform(0.5, 2)))
                    for _ in range(int(rng.integers(4, 30)))]
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                rows.append((e, "<=", 3.0))
                rows.append((e, ">=", -3.0))
            lp = _lp(rows, rng.uniform(-1, 1, size=n))
            sol = lpgen.solve_lp(lp)
            if sol is lpgen.INFEASIBLE:
                continue
            solved += 1
            assert lp.check_solution(sol) >= -1e-9
        assert solved > 10


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
