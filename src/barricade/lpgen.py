"""Linear-program generation and solving for quadratic generator candidates.

A quadratic template v(x) = x'Px + q'x + c is linear in its coefficients,
so "v positive at sampled states" and "v decreasing along sampled
trajectories" are linear rows.  A shared margin variable is maximized so
the LP returns a candidate that satisfies the constraints strictly, which
survives the a-posteriori interval check far more often than a bare
feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symexpr as sx

PIVOT_TOL = 1e-10
ENTER_TOL = 1e-9    # reduced-cost threshold; looser than the pivot tolerance
COEFF_BOUND = 1.0
MARGIN_BOUND = 10.0


@dataclass(frozen=True)
class QuadraticTemplate:
    arity: int

    @property
    def pairs(self):
        n = self.arity
        return [(i, j) for i in range(n) for j in range(i, n)]

    @property
    def n_unknowns(self):
        n = self.arity
        return n * (n + 1) // 2 + n + 1

    def value_row(self, x):
        """Coefficient row such that row . coeffs = v(x)."""
        n = self.arity
        row = []
        for i, j in self.pairs:
            row.append(x[i] * x[i] if i == j else 2.0 * x[i] * x[j])
        row.extend(x[i] for i in range(n))
        row.append(1.0)
        return np.array(row)

    def decrease_row(self, x, dx):
        """Coefficient row such that row . coeffs = grad v(x) . dx."""
        n = self.arity
        row = []
        for i, j in self.pairs:
            if i == j:
                row.append(2.0 * x[i] * dx[i])
            else:
                row.append(2.0 * (x[i] * dx[j] + x[j] * dx[i]))
        row.extend(dx[i] for i in range(n))
        row.append(0.0)
        return np.array(row)


@dataclass(frozen=True)
class GeneratorCandidate:
    arity: int
    p_matrix: np.ndarray
    q_vector: np.ndarray
    c_scalar: float
    expr: sx.Expr
    grad: tuple

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ self.p_matrix @ x + self.q_vector @ x + self.c_scalar)


@dataclass
class LPProblem:
    n_unknowns: int          # template coefficients plus trailing margin
    rows: list               # (coeffs: ndarray, rel: "<=" | ">=", rhs: float)
    objective: np.ndarray    # maximized

    def check_solution(self, x, slack_tol=1e-9):
        """Worst signed slack over all rows (>= -slack_tol means satisfied)."""
        worst = np.inf
        for a, rel, b in self.rows:
            v = float(np.dot(a, x))
            worst = min(worst, b - v if rel == "<=" else v - b)
        return worst


def build_constraints(traces, tmpl, eps_pos, eps_dec, subsample=10,
                      region=None, max_points=4000):
    """Rows from trace data.

    For each retained point x_k with stored derivative dx_k:
        v(x_k) - s >= eps_pos
        grad v(x_k) . dx_k + s <= -eps_dec
    plus the normalization box |coeff| <= 1 and s in [-10, 10]; the
    objective maximizes the shared margin s.  `region`, when given,
    filters points to the domain the SMT check will cover (points inside
    `region.exclude` are also dropped).
    """
    if not traces:
        raise ValueError("need at least one trace")
    if not (eps_pos > 0 and eps_dec > 0):
        raise ValueError("eps_pos and eps_dec must be positive")
    points = []
    heads = []
    for tr in traces:
        idx = range(0, len(tr), subsample)
        for k in idx:
            x = tr.states[k]
            if region is not None and not _in_region(x, region):
                continue
            dx = tr.derivs[k]
            # Trace heads are kept unconditionally: counterexample traces
            # start exactly at the state the last candidate failed on.
            (heads if k == 0 else points).append((x, dx))
    if len(points) > max_points:
        stride = int(np.ceil(len(points) / max_points))
        points = points[::stride]
    points = heads + points

    n_coeff = tmpl.n_unknowns
    n_unknowns = n_coeff + 1          # margin s is the last unknown
    rows = []
    for x, dx in points:
        pos = np.zeros(n_unknowns)
        pos[:n_coeff] = tmpl.value_row(x)
        pos[n_coeff] = -1.0
        rows.append((pos, ">=", eps_pos))
        dec = np.zeros(n_unknowns)
        dec[:n_coeff] = tmpl.decrease_row(x, dx)
        dec[n_coeff] = 1.0
        rows.append((dec, "<=", -eps_dec))
    for i in range(n_coeff):
        e = np.zeros(n_unknowns)
        e[i] = 1.0
        rows.append((e, "<=", COEFF_BOUND))
        rows.append((e, ">=", -COEFF_BOUND))
    e = np.zeros(n_unknowns)
    e[n_coeff] = 1.0
    rows.append((e, "<=", MARGIN_BOUND))
    rows.append((e, ">=", -MARGIN_BOUND))
    objective = np.zeros(n_unknowns)
    objective[n_coeff] = 1.0
    return LPProblem(n_unknowns, rows, objective)


def _in_region(x, region):
    outer, inner = region
    if not all(iv.lo <= v <= iv.hi for iv, v in zip(outer, x)):
        return False
    if inner is not None and inner.contains(x):
        return False
    return True


# ---------------------------------------------------------------------------
# Dense two-phase simplex, Bland's rule (deterministic, cycle-free)
# ---------------------------------------------------------------------------

INFEASIBLE = None


class LPUnboundedError(RuntimeError):
    pass


def solve_lp(lp):
    """Maximize lp.objective subject to lp.rows; unknowns are free.

    Returns the optimal unknown vector, or INFEASIBLE (None).

    The primal has few unknowns and many rows, so the simplex runs on the
    dual (min b'y s.t. A'y = c, y >= 0), whose basis has only n columns;
    the primal vertex solution is recovered from the optimal dual basis by
    solving the corresponding n active constraint rows.  Entering and
    leaving variables follow Bland's rule, so pivoting cannot cycle and
    the result is deterministic.
    """
    n = lp.n_unknowns
    m = len(lp.rows)
    a_ub = np.empty((m, n))
    b_ub = np.empty(m)
    for i, (a, rel, b) in enumerate(lp.rows):
        if rel == "<=":
            a_ub[i] = a
            b_ub[i] = b
        elif rel == ">=":
            a_ub[i] = -np.asarray(a)
            b_ub[i] = -b
        else:
            raise ValueError("unknown relation %r" % rel)

    # Dual equalities: a_ub' y = objective, y >= 0; dual cost is b_ub.
    mat = a_ub.T.copy()                       # n x m
    rhs = lp.objective.astype(float).copy()   # length n
    flip = rhs < 0
    mat[flip] *= -1.0
    rhs[flip] *= -1.0

    # Phase 1: artificial basis, minimize artificial sum.
    tab = np.hstack([mat, np.eye(n), rhs[:, None]])
    basis = m + np.arange(n)
    obj = np.zeros(tab.shape[1])
    obj[m:m + n] = 1.0
    obj -= tab.sum(axis=0)
    _pivot_until_optimal(tab, obj, basis, m + n)
    if -obj[-1] > 1e-8:
        # Dual infeasible: with bounded feasible primal this is unbounded.
        raise LPUnboundedError("LP unbounded; add box constraints")

    # Drive leftover artificials out of the basis, drop their columns.
    for i in range(n):
        if basis[i] >= m:
            for j in range(m):
                if abs(tab[i, j]) > PIVOT_TOL:
                    _pivot(tab, basis, i, j)
                    break
    keep = [i for i in range(n) if basis[i] < m]
    tab = np.hstack([tab[keep, :m], tab[keep, -1:]])
    basis = basis[keep]

    # Phase 2: minimize b_ub . y.
    obj = np.append(b_ub.astype(float), 0.0)
    for i in range(len(basis)):
        if obj[basis[i]] != 0.0:
            obj -= obj[basis[i]] * tab[i]
    if not _pivot_until_optimal(tab, obj, basis, m):
        return INFEASIBLE                      # dual unbounded

    # Primal solution from the active rows of the optimal dual basis.
    active = np.asarray(basis, dtype=int)
    a_act = a_ub[active]
    b_act = b_ub[active]
    if len(active) == n:
        try:
            x = np.linalg.solve(a_act, b_act)
        except np.linalg.LinAlgError:
            x = np.linalg.lstsq(a_act, b_act, rcond=None)[0]
    else:
        x = np.linalg.lstsq(a_act, b_act, rcond=None)[0]
    return x


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _pivot_until_optimal(tab, obj, basis, n_cols, max_iter=200000):
    for _ in range(max_iter):
        neg = np.nonzero(obj[:n_cols] < -ENTER_TOL)[0]
        if neg.size == 0:
            return True
        enter = int(neg[0])                       # Bland: smallest index
        col = tab[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return False
        ratios = np.full(tab.shape[0], np.inf)
        ratios[pos] = tab[pos, -1] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        leave = int(ties[np.argmin(basis[ties])])  # Bland: smallest basis var
        _pivot(tab, basis, leave, enter)
        obj -= obj[enter] * tab[leave]
    raise RuntimeError("simplex iteration limit reached")


def candidate_from(coeffs, tmpl):
    """Build the quadratic candidate (matrix, Expr, gradient) from a raw
    coefficient vector (the trailing margin entry, if present, is ignored)."""
    n = tmpl.arity
    coeffs = np.asarray(coeffs, dtype=float)
    p = np.zeros((n, n))
    pos = 0
    for i, j in tmpl.pairs:
        p[i, j] = coeffs[pos]
        p[j, i] = coeffs[pos]
        pos += 1
    q = coeffs[pos:pos + n].copy()
    c = float(coeffs[pos + n])

    e = sx.const(c)
    for i, j in tmpl.pairs:
        pij = p[i, j]
        if i == j:
            term = sx.mul(sx.const(pij), sx.pow_(sx.var(i), 2))
        else:
            term = sx.mul(sx.const(2.0 * pij), sx.mul(sx.var(i), sx.var(j)))
        e = sx.add(e, term)
    for i in range(n):
        e = sx.add(e, sx.mul(sx.const(q[i]), sx.var(i)))
    grad = tuple(sx.diff(e, i) for i in range(n))
    return GeneratorCandidate(n, p, q, c, e, grad)
