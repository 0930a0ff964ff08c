"""Interval branch-and-prune delta-satisfiability checker.

Decides a conjunction of closed nonlinear inequalities (`lhs <= rhs` or
`lhs >= rhs`) over the domains of one query, a list of boxes.  UNSAT is
exact: no real point of any domain satisfies the formula.  A DELTA_SAT
verdict returns a box on which interval evaluation cannot refute the
formula, which matches the usual delta-decision semantics.  The box is
at most delta wide in each dimension that floats can split; a box they
cannot split is never discarded, so UNSAT stays exact.

The search keeps one work-set of boxes for all the domains: an (n, 2, P)
array of lower and upper endpoints in path order, which is domain index,
then the split bits from the domain down, left half first.  Each pass
takes up to BATCH boxes from its front and runs the forward tape and the
HC4 sweep over all of them at once (`prune`), whether a box is in one of
its PRUNE_ROUNDS contraction rounds or waits for its status pass.  A box
that a round left unchanged, or whose status pass is done, is finished:
dropped when refuted, else split at the midpoint of its widest dimension
that floats can split (`branch`), and its halves take its place.  Each box
is thus treated as a depth-first search of one box at a time treats it,
and an UNSAT query explores the same boxes whatever the order.

A box that cannot be split, or on which the formula certainly holds, is a
witness.  Depth-first search returns the first one in path order, so once
one is found the boxes after it are dropped and those before it are
finished; a witness found among them replaces it.  boxes_explored counts
the boxes at or before the witness in path order, as depth-first search
does, and the budget max_boxes bounds that count, shared by the domains:
the boxes explored before the front of the work-set are a lower bound on
it, so the search stops once they reach max_boxes, and checks the final
count.  The boxes that a pass takes beyond the witness, dropped once it
is found, are work that depth-first search does not do; they do not
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import symexpr as sx
from .interval import (Box, Interval, _OUT, _mid, _vadd, _vdiv, _vneg,
                       _vsub)
from .symexpr import _interval_eval_raw

RELATIONS = ("<=", ">=")

TRUE, FALSE, UNKNOWN = 1, 0, -1

EMPTY = None

PRUNE_ROUNDS = 3   # contraction rounds per box
BATCH = 128        # most boxes per pass; wider passes are fewer but take
                   # more boxes past a DELTA_SAT witness


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
    return np.array([[-math.inf], [rhs]] if rel == "<=" else
                    [[rhs], [math.inf]])


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


def _meet(t, f):
    """(max(f[0], t[0]), min(f[1], t[1])) by Python's rule for ties."""
    take = np.greater(t, f)
    take[1] = t[1] < f[1]
    return np.where(take, t, f)


def _contract(plan, vals, boxes, target, live):
    """HC4 backward pass: contract the columns live of boxes, an (n, 2, B)
    array, in place, assuming the root lies in target, given the forward
    enclosures vals of every tape slot (from _interval_eval_raw).

    Returns the live boxes that are refuted, a (B,) bool array.  Each
    occurrence's target depends only on its parent's and on forward
    values, and variables are narrowed by exact min/max, so one preorder
    sweep gives the contraction of the recursive walk.  Below a mul factor
    whose enclosure contains zero, which the walk skips, a box's targets
    are the whole line, which contracts nothing and refutes nothing.
    """
    ts = [None] * len(plan)
    skips = [None] * len(plan)      # the boxes whose target is skipped
    refuted = np.zeros(boxes.shape[2], bool)
    for i, (slot, how, parent, sib, idx) in enumerate(plan):
        skip = None
        if how == _ROOT:
            t = target
        else:
            t = ts[parent]
            skip = skips[parent]
            if how == _ADD:
                t = _vsub(t, vals[sib])
            elif how == _MUL:
                f = vals[sib]
                # one column (a constant, or a batch of one) is decided
                # at once
                if f.shape[1] > 1 or f[0, 0] <= 0.0 <= f[1, 0]:
                    zero = (f[0] <= 0.0) & (0.0 <= f[1])
                    skip = zero if skip is None else skip | zero
                t = _vdiv(t, f)
            elif how == _SUB_L:
                t = _vadd(t, vals[sib])
            elif how == _SUB_R:
                t = _vsub(vals[sib], t)
            else:
                t = _vneg(t)
        if idx >= 0:
            # The box lies within its forward enclosure vals[slot], so
            # meeting it with t narrows it as meeting both does.
            cur = boxes[idx]
            t = _meet(t, cur)
            if skip is not None:
                t = np.where(skip, cur, t)
            refuted |= t[0] > t[1]
            np.copyto(cur, t, where=live)
            continue
        t = _meet(t, vals[slot])
        if skip is not None:
            t = np.where(skip, _OUT, t)
        refuted |= t[0] > t[1]
        ts[i] = t
        skips[i] = skip
    return refuted & live


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
        """(certainly true, certainly false) per box, (B,) bool arrays,
        given the forward enclosures of the tape."""
        lo, hi = vals[self.tape.root]
        r = self.rhs
        if self.rel == "<=":
            return hi <= r, lo > r
        return lo >= r, hi < r


def _atoms(node):
    """The constraints of a formula node (a Constraint or an And of them),
    lowered, in order."""
    if isinstance(node, Constraint):
        return [_Atom(node)]
    return [a for p in node.parts for a in _atoms(p)]


@np.errstate(all="ignore")
def prune(atoms, boxes, contract):
    """One forward pass and HC4 sweep of the conjunction of atoms (see
    _atoms) over boxes, an (n, 2, B) array.

    The boxes where contract, a (B,) bool array, is True are contracted in
    place; the others only get their status.  Returns each box's status, a
    (B,) array of TRUE, FALSE (refuted) and UNKNOWN, or EMPTY (None) when
    every box is refuted.  Conjuncts run in turn, each on the boxes as the
    ones before it contracted them.  A box whose evaluation fails is
    UNKNOWN for that conjunct and is not contracted by it.  A box's status
    is that of its enclosures before this pass contracted it.
    """
    false = np.zeros(boxes.shape[2], bool)
    unknown = np.zeros_like(false)
    for atom in atoms:
        vals, bad = _interval_eval_raw(atom.tape, boxes)
        true, out = atom.status(vals)
        live = contract
        if bad is not None:
            true, out, live = true & ~bad, out & ~bad, live & ~bad
        false |= out
        unknown |= ~true
        live = live & ~false
        if live.any():
            false |= _contract(atom.plan, vals, boxes, atom.target, live)
    if false.all():
        return EMPTY
    return np.where(false, FALSE, np.where(unknown, UNKNOWN, TRUE))


def _box(pairs):
    return Box(tuple(Interval(lo, hi) for lo, hi in pairs))


@np.errstate(all="ignore")
def branch(boxes, delta):
    """Where to split each box of boxes, an (n, 2, B) array: at the
    midpoint of its widest dimension that is wider than delta and that
    floats can split, the lowest such dimension among equally wide ones.
    Returns (dims, mids), (B,) arrays; dims is -1 for a box with no such
    dimension."""
    lo, hi = boxes[:, 0], boxes[:, 1]
    mid = 0.5 * (lo + hi)
    # _mid, also where lo + hi overflows
    mid = np.where((lo <= mid) & (mid <= hi), mid, 0.5 * lo + 0.5 * hi)
    width = hi - lo
    ok = (width > delta) & (lo < mid) & (mid < hi)
    dims = np.where(ok, width, -1.0).argmax(axis=0)
    cols = np.arange(boxes.shape[2])
    return np.where(ok.any(axis=0), dims, -1), mid[dims, cols]


def check(phi, domains, delta, max_boxes=10_000_000):
    """Branch-and-prune decision over domains, a Box or a list of Boxes:
    UNSAT when no domain has a point that satisfies phi, else DELTA_SAT
    with the witness that depth-first search over the domains in order
    returns (see the module docstring).

    Raises ValueError for a domain with an infinite endpoint, which
    bisection cannot split, and BudgetExhausted when depth-first search
    over the domains would explore more than max_boxes boxes.
    """
    if isinstance(domains, Box):
        domains = [domains]
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not domains:
        raise ValueError("no domain")
    for domain in domains:
        if domain.arity != phi.arity:
            raise ValueError("domain arity %d != formula arity %d"
                             % (domain.arity, phi.arity))
        if not all(math.isfinite(iv.lo) and math.isfinite(iv.hi)
                   for iv in domain):
            raise ValueError("unbounded domain %s" % (domain,))
    t0 = time.perf_counter()
    witness, explored = _search(_atoms(phi.root), domains, delta, max_boxes)
    return DsatResult("UNSAT" if witness is None else "DELTA_SAT", witness,
                      explored, time.perf_counter() - t0)


@np.errstate(all="ignore")
def _search(atoms, domains, delta, max_boxes):
    """The work-set search of check: (witness or None, boxes explored)."""
    boxes = np.array([[(iv.lo, iv.hi) for iv in d] for d in domains],
                     dtype=float).transpose(1, 2, 0).copy()
    # A box's next pass: contraction round 0..PRUNE_ROUNDS - 1, or the
    # status pass (PRUNE_ROUNDS).
    rounds = np.zeros(len(domains), int)
    # Explored boxes lying just before each box in path order, and after
    # the last one.
    gaps = np.zeros(len(domains), int)
    tail = 0
    witness = None
    while boxes.shape[2]:
        m = min(boxes.shape[2], BATCH)
        head = boxes[:, :, :m]
        # Depth-first search explores the front box after the gaps[0]
        # boxes before it, and any witness lies at or after it.
        if gaps[0] >= max_boxes:
            raise BudgetExhausted("explored more than %d boxes" % max_boxes)
        contract = rounds[:m] < PRUNE_ROUNDS
        prev = head.copy()
        status = prune(atoms, head, contract)
        if status is EMPTY:
            status = np.full(m, FALSE)
        alive = status != FALSE
        done = alive & (~contract | (head == prev).all(axis=(0, 1)))
        dims = np.full(m, -1)
        mids = np.zeros(m)
        if done.any():
            dims[done], mids[done] = branch(head[:, :, done], delta)
        sat = done & ((dims < 0) | (status == TRUE))
        keep = alive & ~done
        cut = m
        if sat.any():
            cut = int(sat.argmax())
            pairs = head[:, :, cut].tolist()
            if dims[cut] >= 0:
                # Certainly satisfied somewhere in here: the midpoint is
                # a genuine witness, reported as a degenerate box.
                pairs = [(_mid(lo, hi),) * 2 for lo, hi in pairs]
            witness = _box(pairs)
        # The boxes before cut, each in place of its box: the box itself
        # while in process, its halves once split.
        count = keep[:cut] + 2 * (done & ~sat)[:cut]
        src = np.repeat(np.arange(cut), count)
        new = head[:, :, src]
        first = np.cumsum(count) - count
        split = np.flatnonzero(count == 2)
        new[dims[split], 1, first[split]] = mids[split]
        new[dims[split], 0, first[split] + 1] = mids[split]
        new_rounds = np.where(count == 1, rounds[:cut] + 1, 0)[src]
        # A finished box is explored: it and its gap join the gap of the
        # next box in path order.
        reach = np.concatenate(([0], np.cumsum(gaps[:cut] + ~keep[:cut])))
        made = np.flatnonzero(count)
        new_gaps = np.zeros(len(src), int)
        new_gaps[first[made]] = np.diff(reach[made + 1], prepend=0)
        carry = int(reach[-1] - (reach[made[-1] + 1] if len(made) else 0))
        if cut < m:
            tail = carry + int(gaps[cut]) + 1
            boxes, rounds, gaps = new, new_rounds, new_gaps
            continue
        rest = gaps[m:].copy()
        if len(rest):
            rest[0] += carry
        else:
            tail += carry
        boxes = np.concatenate((new, boxes[:, :, m:]), axis=2)
        rounds = np.concatenate((new_rounds, rounds[m:]))
        gaps = np.concatenate((new_gaps, rest))
    if tail > max_boxes:
        raise BudgetExhausted("explored more than %d boxes" % max_boxes)
    return witness, tail
