"""Linear-program generation and solving for quadratic generator candidates.

A quadratic template v(x) = x'Px + q'x + c is linear in its coefficients,
so "v positive at sampled states" and "v decreasing along sampled
trajectories" are linear rows.  The LP is one matrix: `rows @ x <= rhs`,
every trace point's rows built at once from the stacked states and
derivatives, and the simplex reads that matrix as it is.  A shared margin
variable is maximized so the LP returns a candidate that satisfies the
constraints strictly, which survives the a-posteriori interval check far
more often than a bare feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symexpr as sx

PIVOT_TOL = 1e-10
ENTER_TOL = 1e-9    # reduced-cost threshold; looser than the pivot tolerance
COEFF_BOUND = 1.0
MARGIN_BOUND = 10.0
MAX_POINTS = 4000   # trace points past the heads are strided down to this
MAX_PIVOTS = 200000
DEGENERATE_RUN = 50  # zero-step pivots in a row before Bland's rule takes over


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

    def monomials(self, x, dx):
        """Coefficient rows for the (m, n) states x and derivatives dx:
        value[k] . coeffs = v(x[k]) and decrease[k] . coeffs =
        grad v(x[k]) . dx[k]."""
        i, j = np.array(self.pairs).T
        diag = i == j
        xi, xj, dxi, dxj = x[:, i], x[:, j], dx[:, i], dx[:, j]
        ones = np.ones((len(x), 1))
        value = np.hstack([np.where(diag, xi * xj, 2.0 * xi * xj), x, ones])
        decrease = np.hstack([
            np.where(diag, 2.0 * xi * dxj, 2.0 * (xi * dxj + xj * dxi)),
            dx, np.zeros_like(ones)])
        return value, decrease


class NotEllipsoidError(ValueError):
    """Quadratic part of the candidate is not positive definite."""


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

    @cached_property
    def center(self):
        """x* = -P^-1 q / 2, where v is least.  Raises NotEllipsoidError
        unless P is positive definite, by Sylvester's criterion on the
        exact rationals of P's floats: the k-th pivot of elimination is the
        k-th leading minor over the (k-1)-th."""
        from fractions import Fraction  # not at import: it loads decimal
        m = [[Fraction(v) for v in row] for row in self.p_matrix.tolist()]
        for k, pivot in enumerate(m):
            if pivot[k] <= 0:
                raise NotEllipsoidError("P is not positive definite")
            for row in m[k + 1:]:
                f = row[k] / pivot[k]
                row[:] = [x - f * y for x, y in zip(row, pivot)]
        return np.linalg.solve(self.p_matrix, -0.5 * self.q_vector)

    def level_points(self, level, dirs):
        """The points x* + E (u * sqrt((level - v(x*)) / lambda)) of {v =
        level}, P = E diag(lambda) E', for the unit columns u of the (n, k)
        array dirs, as columns.  Raises NotEllipsoidError as center does,
        and ValueError when level <= v(x*): the set is empty or a point."""
        least = self.value(self.center)
        if not level > least:
            raise ValueError("level %r at or below the minimum %r of v: the "
                             "level set is empty or a point" % (level, least))
        evals, evecs = np.linalg.eigh(self.p_matrix)
        return (evecs @ (dirs * np.sqrt((level - least) / evals)[:, None])
                + self.center[:, None])


@dataclass
class LPProblem:
    rows: np.ndarray         # (m, n): rows @ x <= rhs; x ends with the margin
    rhs: np.ndarray          # (m,)
    objective: np.ndarray    # (n,), maximized

    def check_solution(self, x):
        """Worst slack over all rows; negative where a row is violated."""
        return float(np.min(self.rhs - self.rows @ x))


def build_constraints(traces, tmpl, eps_pos, eps_dec, subsample=10,
                      region=None):
    """Rows from trace data, in `rows @ x <= rhs` form.

    Every subsample-th state x_k of each trace, with stored derivative
    dx_k, gives two rows, in this order:
        -v(x_k) + s <= -eps_pos
        grad v(x_k) . dx_k + s <= -eps_dec
    The trace heads come first, then the other points, strided down to at
    most MAX_POINTS; then the normalization box |coeff| <= 1 and
    |s| <= 10, two rows per unknown.  The objective maximizes the shared
    margin s, the last unknown.  `region`, when given, is a pair of boxes
    (outer, inner): heads and points outside outer or inside inner are
    dropped, so the rows cover the domain the SMT check will.  The
    simplex breaks its ties by index, so this order fixes the certificate.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if not (eps_pos > 0 and eps_dec > 0):
        raise ValueError("eps_pos and eps_dec must be positive")
    if not subsample >= 1:
        raise ValueError("subsample must be >= 1")
    x = np.concatenate([tr.states[::subsample] for tr in traces])
    dx = np.concatenate([tr.derivs[::subsample] for tr in traces])
    head = np.concatenate([np.arange(0, len(tr), subsample) == 0
                           for tr in traces])
    keep = np.ones(len(x), bool) if region is None else in_region(x, region)
    # Trace heads escape the stride: counterexample traces start exactly
    # at the state the last candidate failed on.
    points = np.flatnonzero(keep & ~head)
    if len(points) > MAX_POINTS:
        points = points[::int(np.ceil(len(points) / MAX_POINTS))]
    order = np.concatenate([np.flatnonzero(keep & head), points])
    value, decrease = tmpl.monomials(x[order], dx[order])
    margin = np.ones((len(order), 1))
    box = np.eye(tmpl.n_unknowns + 1)     # margin s is the last unknown
    rows = np.vstack([_interleave(np.hstack([-value, margin]),
                                  np.hstack([decrease, margin])),
                      _interleave(box, -box)])
    rhs = np.concatenate([
        np.tile([-eps_pos, -eps_dec], len(order)),
        np.repeat([COEFF_BOUND] * tmpl.n_unknowns + [MARGIN_BOUND], 2)])
    return LPProblem(rows, rhs, box[-1])


def _interleave(a, b):
    """Rows a[0], b[0], a[1], b[1], ..."""
    return np.stack([a, b], axis=1).reshape(-1, a.shape[1])


def in_region(x, region):
    """Mask of the rows of x inside `outer` and not inside `inner`."""
    outer, inner = region
    return outer.contains(x) & ~inner.contains(x)


# ---------------------------------------------------------------------------
# Dense two-phase simplex: Dantzig pricing, Bland's rule after a degenerate
# run (deterministic, cycle-free)
# ---------------------------------------------------------------------------

INFEASIBLE = None


class LPUnboundedError(RuntimeError):
    pass


class PivotLimitError(RuntimeError):
    """The simplex made MAX_PIVOTS pivots in one phase."""


def solve_lp(lp):
    """Maximize lp.objective subject to lp.rows @ x <= lp.rhs; the
    unknowns x are free.

    Returns the optimal unknown vector, or INFEASIBLE (None).

    The primal has few unknowns and many rows, so the simplex runs on the
    dual (min b'y s.t. A'y = c, y >= 0), whose basis has only n columns;
    the primal vertex solution is recovered from the optimal dual basis by
    solving the corresponding n active constraint rows.  The entering
    column has the most negative reduced cost (Dantzig); after
    DEGENERATE_RUN zero-step pivots in a row, Bland's smallest-index rule
    takes over for the rest of the phase, so pivoting cannot cycle.  Ties
    in the ratio test go to the smallest basis index, so the result is
    deterministic.  Raises PivotLimitError after MAX_PIVOTS pivots.
    """
    return _solve(lp)[0]


def _solve(lp):
    """solve_lp's answer and its final dual basis: the rows of lp whose
    equalities define the solution."""
    a_ub, b_ub = lp.rows, lp.rhs
    m, n = a_ub.shape

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
    obj = np.append(b_ub, 0.0)
    for i in range(len(basis)):
        if obj[basis[i]] != 0.0:
            obj -= obj[basis[i]] * tab[i]
    if not _pivot_until_optimal(tab, obj, basis, m):
        return INFEASIBLE, basis               # dual unbounded

    # Primal solution from the active rows of the optimal dual basis.
    a_act, b_act = a_ub[basis], b_ub[basis]
    if len(basis) == n:
        try:
            return np.linalg.solve(a_act, b_act), basis
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(a_act, b_act, rcond=None)[0], basis


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _pivot_until_optimal(tab, obj, basis, n_cols):
    degenerate = 0                  # zero-step pivots in a row
    for _ in range(MAX_PIVOTS):
        neg = np.nonzero(obj[:n_cols] < -ENTER_TOL)[0]
        if neg.size == 0:
            return True
        if degenerate < DEGENERATE_RUN:
            enter = int(neg[np.argmin(obj[neg])])  # Dantzig: most negative
        else:
            enter = int(neg[0])                    # Bland: smallest index
        col = tab[:, enter]
        pos = col > PIVOT_TOL
        if not pos.any():
            return False
        ratios = np.full(tab.shape[0], np.inf)
        ratios[pos] = tab[pos, -1] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        leave = int(ties[np.argmin(basis[ties])])  # Bland: smallest basis var
        if degenerate < DEGENERATE_RUN:
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        _pivot(tab, basis, leave, enter)
        obj -= obj[enter] * tab[leave]
    raise PivotLimitError("simplex iteration limit reached")


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
    grad = tuple(_partial(p, q, k) for k in range(n))
    return GeneratorCandidate(n, p, q, c, e, grad)


def _partial(p, q, k):
    """dv/dx_k = 2 (P x)_k + q_k: the terms of v that hold x_k, in v's
    order, then q_k, folded by the same constructors.  Certificate files
    store this text and load_certificate compares it, so the order and
    the folding are part of the file format."""
    g = sx.const(0.0)
    for i in range(len(q)):
        if i == k:
            term = sx.mul(sx.const(p[k, k]), sx.mul(sx.const(2.0), sx.var(k)))
        else:
            term = sx.mul(sx.const(2.0 * p[i, k]), sx.var(i))
        g = sx.add(g, term)
    return sx.add(g, sx.const(q[k]))
