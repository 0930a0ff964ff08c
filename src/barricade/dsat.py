"""Interval branch-and-prune delta-satisfiability checker.

Decides a conjunction of closed nonlinear inequalities (`lhs <= rhs` or
`lhs >= rhs`) over a box.  UNSAT is exact (no real point in the domain
satisfies the formula); a DELTA_SAT verdict returns a box on which
interval evaluation cannot refute the formula, which matches the usual
delta-decision semantics.  The box is at most delta wide in each
dimension that floats can split; a box they cannot split is never
discarded, so UNSAT stays exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import symexpr as sx
from .interval import Box, Interval, _iadd, _isub, _ineg, _idiv, _mid
from .symexpr import _interval_eval_raw

RELATIONS = ("<=", ">=")

TRUE, FALSE, UNKNOWN = 1, 0, -1

EMPTY = None

PRUNE_ROUNDS = 3   # contraction rounds per box in prune


class BudgetExhausted(RuntimeError):
    """Box budget ran out before a verdict was reached."""


@dataclass(frozen=True)
class Constraint:
    lhs: sx.Expr
    rel: str
    rhs: float

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError("unknown relation %r" % self.rel)

    def to_text(self):
        return "%s %s %r" % (sx.to_sexpr(self.lhs), self.rel, self.rhs)


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty conjunction")


@dataclass(frozen=True)
class Formula:
    arity: int
    root: object   # Constraint | And

    def to_text(self):
        return _node_text(self.root)


def _node_text(node):
    if isinstance(node, Constraint):
        return node.to_text()
    return "(and %s)" % " ".join(_node_text(p) for p in node.parts)


@dataclass(frozen=True)
class DsatResult:
    verdict: str                # "UNSAT" | "DELTA_SAT"
    witness: object             # Box | None
    boxes_explored: int
    wall_time: float


# ---------------------------------------------------------------------------
# HC4-style contraction (backward pass through arithmetic nodes only)
# ---------------------------------------------------------------------------

def _target_interval(rel, rhs):
    return (-math.inf, rhs) if rel == "<=" else (rhs, math.inf)


# How an occurrence's target follows from its parent's: the parent's op
# and, where it matters, which operand the occurrence is.
_ROOT, _ADD, _SUB_L, _SUB_R, _NEG, _MUL = range(6)
_HC4_ROLES = {"add": (_ADD, _ADD), "sub": (_SUB_L, _SUB_R),
              "mul": (_MUL, _MUL), "neg": (_NEG,)}


def _hc4_plan(tape):
    """Occurrences of the tape's tree that the backward pass visits.

    The walk descends from the root through add/sub/mul/neg only; other
    nodes end it (no contraction below them, which is sound).  Entries are
    ``(slot, how, parent entry, sibling slot, var index or -1)`` in
    preorder, the order in which a recursive walk intersects the
    variables.
    """
    nodes = tape.nodes
    plan = []
    stack = [(tape.root, _ROOT, -1, -1)]
    while stack:
        slot, how, parent, sib = stack.pop()
        op, _, idx, kids = nodes[slot]
        me = len(plan)
        plan.append((slot, how, parent, sib, idx if op == "var" else -1))
        roles = _HC4_ROLES.get(op)
        if roles is not None:
            # A binary operand's sibling is the other operand.
            children = list(zip(kids, roles, reversed(kids)))
            stack.extend((kid, how, me, sib)
                         for kid, how, sib in reversed(children))
    return plan


def _contract(plan, vals, box, target):
    """HC4 backward pass: contract box (in place) assuming the root lies
    in target, given the forward enclosures vals of every tape slot.

    Returns False when the box is refuted.  Each occurrence's target
    depends only on its parent's and on forward values, and variables are
    narrowed by exact min/max, so one preorder sweep gives the contraction
    of the recursive walk.
    """
    ts = [None] * len(plan)
    for i, (slot, how, parent, sib, idx) in enumerate(plan):
        if how == _ROOT:
            t = target
        else:
            t = ts[parent]
            if t is None:       # below a mul factor that was skipped
                continue
            if how == _ADD:
                t = _isub(t, vals[sib])
            elif how == _MUL:
                f = vals[sib]
                if f[0] <= 0.0 <= f[1]:
                    continue
                t = _idiv(t, f)
            elif how == _SUB_L:
                t = _iadd(t, vals[sib])
            elif how == _SUB_R:
                t = _isub(vals[sib], t)
            else:
                t = _ineg(t)
        f = vals[slot]
        lo = max(f[0], t[0])
        hi = min(f[1], t[1])
        if lo > hi:
            return False
        ts[i] = (lo, hi)
        if idx >= 0:
            cur = box[idx]
            lo = max(cur[0], lo)
            hi = min(cur[1], hi)
            if lo > hi:
                return False
            box[idx] = (lo, hi)
    return True


# ---------------------------------------------------------------------------
# Formulas lowered for one query
# ---------------------------------------------------------------------------

class _Atom:
    """A constraint with its lhs lowered to a tape."""

    __slots__ = ("tape", "plan", "rel", "rhs", "target")

    def __init__(self, c):
        self.tape = sx.lower(c.lhs)
        self.plan = _hc4_plan(self.tape)
        self.rel = c.rel
        self.rhs = c.rhs
        self.target = _target_interval(c.rel, c.rhs)

    def status(self, vals):
        """TRUE/FALSE/UNKNOWN given the forward enclosures of the tape."""
        lo, hi = vals[self.tape.root]
        r = self.rhs
        if self.rel == "<=":
            true, false = hi <= r, lo > r
        else:
            true, false = lo >= r, hi < r
        return TRUE if true else FALSE if false else UNKNOWN


def _atoms(node):
    """The constraints of a formula node (a Constraint or an And of them),
    lowered, in order."""
    if isinstance(node, Constraint):
        return [_Atom(node)]
    return [a for p in node.parts for a in _atoms(p)]


def _status(atoms, box):
    """TRUE/FALSE/UNKNOWN status of the conjunction of atoms on box."""
    out = TRUE
    for atom in atoms:
        try:
            s = atom.status(_interval_eval_raw(atom.tape, box))
        except sx.EvalError:
            s = UNKNOWN
        if s == FALSE:
            return FALSE
        if s == UNKNOWN:
            out = UNKNOWN
    return out


def prune(atoms, box):
    """Contract box (a list of (lo, hi) pairs) in place against the
    conjunction of atoms (see _atoms).

    Returns EMPTY (None) when the box is refuted, else the box and its
    status, None when the last round still contracted it.  Each of up to
    PRUNE_ROUNDS rounds runs forward interval evaluation plus the HC4
    backward pass for every conjunct.
    """
    for _ in range(PRUNE_ROUNDS):
        prev = list(box)
        status = TRUE
        for atom in atoms:
            try:
                vals = _interval_eval_raw(atom.tape, box)
            except sx.EvalError:
                status = UNKNOWN
                continue
            s = atom.status(vals)
            if s == FALSE:
                return EMPTY
            if s == UNKNOWN:
                status = UNKNOWN
            if not _contract(atom.plan, vals, box, atom.target):
                return EMPTY
        if box == prev:
            # Contraction only narrows, so every conjunct of this round
            # was evaluated on a box equal to the returned one.
            return box, status
    return box, None


def _box(pairs):
    return Box(tuple(Interval(lo, hi) for lo, hi in pairs))


def branch(box, delta):
    """Halves of box (a list of (lo, hi) pairs) split at the midpoint of
    its widest dimension that is wider than delta and that floats can
    split; None when it has no such dimension."""
    widths = [hi - lo for lo, hi in box]
    for dim in sorted(range(len(box)), key=widths.__getitem__, reverse=True):
        lo, hi = box[dim]
        mid = _mid(lo, hi)
        if widths[dim] > delta and lo < mid < hi:
            left = list(box)
            right = list(box)
            left[dim] = (lo, mid)
            right[dim] = (mid, hi)
            return left, right
    return None


def check(phi, domain, delta, max_boxes=10_000_000):
    """Branch-and-prune decision over a bounded box.

    Depth-first worklist, widest-dimension bisection.  Raises ValueError
    for a domain with an infinite endpoint, which bisection cannot split,
    and BudgetExhausted when more than max_boxes boxes are processed.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if domain.arity != phi.arity:
        raise ValueError("domain arity %d != formula arity %d"
                         % (domain.arity, phi.arity))
    if not all(math.isfinite(iv.lo) and math.isfinite(iv.hi) for iv in domain):
        raise ValueError("unbounded domain %s" % (domain,))
    t0 = time.perf_counter()
    atoms = _atoms(phi.root)
    stack = [[(iv.lo, iv.hi) for iv in domain]]
    explored = 0
    while stack:
        box = stack.pop()
        explored += 1
        if explored > max_boxes:
            raise BudgetExhausted("explored more than %d boxes" % max_boxes)
        pruned = prune(atoms, box)
        if pruned is EMPTY:
            continue
        box, status = pruned
        if status is None:
            status = _status(atoms, box)
        if status == FALSE:
            continue
        halves = branch(box, delta)
        if halves is None:
            return DsatResult("DELTA_SAT", _box(box), explored,
                              time.perf_counter() - t0)
        if status == TRUE:
            # Certainly satisfied somewhere in here: the midpoint is a
            # genuine witness, reported as a degenerate box.
            mid = [_mid(lo, hi) for lo, hi in box]
            wit = _box(zip(mid, mid))
            return DsatResult("DELTA_SAT", wit, explored,
                              time.perf_counter() - t0)
        stack += reversed(halves)
    return DsatResult("UNSAT", None, explored, time.perf_counter() - t0)
