"""Linear-program generation and solving for quadratic generator candidates.

A quadratic template v(x) = x'Px + q'x + c is linear in its coefficients,
so "v positive" and "v decreasing" at sampled trace points are linear
rows, of one matrix `rows @ x <= rhs` that the simplex reads as it is.  A
shared margin is maximized, so the candidate satisfies the rows strictly
and survives the interval check far more often than a bare feasible point.
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


def trace_grid(batch, read):
    """The states and derivatives that `read`, a slice, picks from each
    member of `batch`, as one (2, B, k, n) array, trace by trace."""
    return np.array((batch.states[read],
                     batch.derivs[read])).transpose(0, 3, 1, 2)


def lp_points(batch, subsample, region=None):
    """(heads, rest): every subsample-th state of `batch` and its
    derivative, as (2, m, n) arrays of the trace heads and of the other
    points, trace by trace.  Points outside `outer` or inside `inner` of
    region = (outer, inner), when given, are dropped, as the check does."""
    if not subsample >= 1:
        raise ValueError("subsample must be >= 1")
    grid = trace_grid(batch, slice(None, None, subsample))
    keep = (np.ones(grid.shape[1:3], bool) if region is None
            else in_region(grid[0], region))
    return grid[:, :, :1][:, keep[:, :1]], grid[:, :, 1:][:, keep[:, 1:]]


def build_constraints(points, tmpl, eps_pos, eps_dec):
    """The LP of the lp_points of one or more batches, written in place
    into one array.  Each point x_k, with stored derivative dx_k, gives
    two rows, at an even index and the odd one after it:
        -v(x_k) + s <= -eps_pos
        grad v(x_k) . dx_k + s <= -eps_dec
    The heads of every batch come first, then the other points, strided
    down to at most MAX_POINTS; then the box |coeff| <= 1 and |s| <= 10,
    two rows per unknown.  The objective maximizes the margin s, the last
    unknown.  The simplex breaks ties by index: this order fixes the
    certificate."""
    if not points:
        raise ValueError("need at least one batch of points")
    if not (eps_pos > 0 and eps_dec > 0):
        raise ValueError("eps_pos and eps_dec must be positive")
    heads, rest = (np.concatenate(p, axis=1) for p in zip(*points))
    # Trace heads escape the stride: counterexample traces start exactly
    # at the state the last candidate failed on.
    if rest.shape[1] > MAX_POINTS:
        rest = rest[:, ::int(np.ceil(rest.shape[1] / MAX_POINTS))]
    value, decrease = tmpl.monomials(*np.concatenate([heads, rest], axis=1))
    p, u = value.shape
    box = np.eye(u + 1)                 # margin s is the last unknown
    rows = np.empty((2 * p + 2 * (u + 1), u + 1))
    np.negative(value, out=rows[:2 * p:2, :u])
    rows[1:2 * p:2, :u] = decrease
    rows[:2 * p, u] = 1.0
    rows[2 * p::2] = box
    np.negative(box, out=rows[2 * p + 1::2])
    rhs = np.full(len(rows), COEFF_BOUND)
    rhs[:2 * p:2], rhs[1:2 * p:2], rhs[-2:] = -eps_pos, -eps_dec, MARGIN_BOUND
    return LPProblem(rows, rhs, box[-1])


def in_region(x, region):
    """Mask of the rows of x inside `outer` and not inside `inner`."""
    outer, inner = region
    return outer.contains(x) & ~inner.contains(x)


# ---------------------------------------------------------------------------
# Two-phase simplex on the dual, revised: it keeps the explicit basis inverse
# B^-1 and beta = B^-1 c, prices every column with one product per pivot and
# forms only the entering column.  Its rules, and its row operations on B^-1
# and beta, are a dense tableau's (Dantzig pricing, Bland's rule after a
# degenerate run: deterministic, cycle-free) and read the tableau's numbers up
# to rounding, so its bases are the tableau's unless rounding breaks a tie.
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
    dual (min b'y s.t. A'y = c, y >= 0), whose basis has only n columns:
    an n x n inverse, and one n-vector times A to price all m columns.
    The primal vertex solution is recovered from the optimal dual basis by
    solving the corresponding n active constraint rows.  The entering
    column has the most negative reduced cost (Dantzig); after
    DEGENERATE_RUN zero-step pivots in a row, Bland's smallest-index rule
    takes over for the rest of the phase, so pivoting cannot cycle.  Ties
    in the ratio test go to the smallest basis index, so the result is
    deterministic.  Raises PivotLimitError after MAX_PIVOTS pivots.
    """
    return _solve(lp)[0]


def _solve(lp):
    """solve_lp's answer and its final dual basis, the rows of lp whose
    equalities define the solution: a dense tableau's, pivot by pivot."""
    a_ub, b_ub = lp.rows, lp.rhs
    m, n = a_ub.shape

    # Dual equalities: a_ub' y = objective, y >= 0, each flipped to a
    # nonnegative right side; dual cost is b_ub.  The n artificial columns
    # of phase 1 follow a_ub's m.
    sign = np.where(lp.objective < 0, -1.0, 1.0)
    mat = np.empty((n, m + n))
    np.multiply(a_ub.T, sign[:, None], out=mat[:, :m])
    mat[:, m:] = np.eye(n)

    # Phase 1: artificial basis, minimize artificial sum.
    inv = np.hstack([np.eye(n), (lp.objective * sign)[:, None]])
    basis = m + np.arange(n)
    cost = np.repeat([0.0, 1.0], [m, n])
    _pivot_until_optimal(mat, cost, inv, basis)
    if cost[basis] @ inv[:, -1] > 1e-8:
        # Dual infeasible: with bounded feasible primal this is unbounded.
        raise LPUnboundedError("LP unbounded; add box constraints")

    # Drive leftover artificials out of the basis at their row's first
    # column off zero; drop the rows of those that stay.
    mat = mat[:, :m]
    for i in np.flatnonzero(basis >= m):
        off = np.flatnonzero(np.abs(inv[i, :-1] @ mat) > PIVOT_TOL)
        if off.size:
            _pivot(inv, basis, i, off[0], inv[:, :-1] @ mat[:, off[0]])
    keep = basis < m
    inv, basis = inv[keep], basis[keep]

    # Phase 2: minimize b_ub . y.
    if not _pivot_until_optimal(mat, b_ub, inv, basis):
        return INFEASIBLE, basis               # dual unbounded

    # Primal solution from the active rows of the optimal dual basis.
    a_act, b_act = a_ub[basis], b_ub[basis]
    if len(basis) == n:
        try:
            return np.linalg.solve(a_act, b_act), basis
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(a_act, b_act, rcond=None)[0], basis


def _pivot(inv, basis, row, enter, col):
    """Column `enter`, col = B^-1 a_enter (overwritten), enters at `row`:
    the tableau's row operations on inv = [B^-1 | beta]."""
    inv[row] /= col[row]
    col[row] = 0.0
    inv -= col[:, None] * inv[row]
    basis[row] = enter


def _pivot_until_optimal(mat, cost, inv, basis):
    """Minimize cost . y s.t. mat @ y = rhs, y >= 0, from `basis`, with
    inv = [B^-1 | B^-1 rhs].  False when the entering column is
    unbounded."""
    degenerate = 0                  # zero-step pivots in a row
    for _ in range(MAX_PIVOTS):
        reduced = cost[basis] @ inv[:, :-1] @ mat
        np.subtract(cost, reduced, out=reduced)
        least = np.fmin.reduce(reduced)      # a NaN never enters
        if not least < -ENTER_TOL:
            return True
        if degenerate < DEGENERATE_RUN:
            enter = int((reduced == least).argmax())  # Dantzig: most negative
        else:
            enter = int((reduced < -ENTER_TOL).argmax())  # Bland: first index
        col = inv[:, :-1] @ mat[:, enter]
        beta = inv[:, -1].tolist()      # n rows: the ratio test in Python
        ratios = {i: beta[i] / c for i, c in enumerate(col.tolist())
                  if c > PIVOT_TOL}
        if not ratios:
            return False
        best = min(ratios.values())
        leave = min((i for i, r in ratios.items() if r <= best + 1e-12),
                    key=basis.__getitem__)    # Bland: smallest basis var
        if degenerate < DEGENERATE_RUN:
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        _pivot(inv, basis, leave, enter, col)
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
