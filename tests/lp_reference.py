"""The LP's reference: the dense two-phase tableau simplex and the
build_constraints that stacked and interleaved its rows, as barricade.lpgen
had them before its revised simplex and in-place row layout.  lpgen's
_solve must return this solver's basis, in order, and its x bit for bit,
and build_constraints this module's rows and rhs byte for byte
(tests/test_lpgen.py compares them).  Nothing in the package imports this
module.
"""

import numpy as np

from barricade import lpgen
from barricade.lpgen import (COEFF_BOUND, ENTER_TOL, INFEASIBLE, MARGIN_BOUND,
                             MAX_POINTS, PIVOT_TOL, LPProblem,
                             LPUnboundedError, PivotLimitError)


def build_constraints(points, tmpl, eps_pos, eps_dec):
    """The LP of the lp_points of one or more batches, stacked from
    temporaries: per point a value row and a decrease row, the heads of
    every batch first, then the box rows."""
    if not points:
        raise ValueError("need at least one batch of points")
    if not (eps_pos > 0 and eps_dec > 0):
        raise ValueError("eps_pos and eps_dec must be positive")
    heads, rest = (np.concatenate(p, axis=1) for p in zip(*points))
    if rest.shape[1] > MAX_POINTS:
        rest = rest[:, ::int(np.ceil(rest.shape[1] / MAX_POINTS))]
    value, decrease = tmpl.monomials(*np.concatenate([heads, rest], axis=1))
    margin = np.ones((len(value), 1))
    box = np.eye(tmpl.n_unknowns + 1)     # margin s is the last unknown
    rows = np.vstack([_interleave(np.hstack([-value, margin]),
                                  np.hstack([decrease, margin])),
                      _interleave(box, -box)])
    rhs = np.concatenate([
        np.tile([-eps_pos, -eps_dec], len(value)),
        np.repeat([COEFF_BOUND] * tmpl.n_unknowns + [MARGIN_BOUND], 2)])
    return LPProblem(rows, rhs, box[-1])


def _interleave(a, b):
    """Rows a[0], b[0], a[1], b[1], ..."""
    return np.stack([a, b], axis=1).reshape(-1, a.shape[1])


def solve(lp):
    """(x, basis) of lpgen._solve, by the dense tableau: the phase-1
    tableau [A' | I | c] of the dual, artificials driven out one column at
    a time, then phase 2 on the kept rows."""
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
    for _ in range(lpgen.MAX_PIVOTS):
        neg = np.nonzero(obj[:n_cols] < -ENTER_TOL)[0]
        if neg.size == 0:
            return True
        if degenerate < lpgen.DEGENERATE_RUN:
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
        if degenerate < lpgen.DEGENERATE_RUN:
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        _pivot(tab, basis, leave, enter)
        obj -= obj[enter] * tab[leave]
    raise PivotLimitError("simplex iteration limit reached")
