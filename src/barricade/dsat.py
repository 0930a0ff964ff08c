"""Branch-and-prune delta-satisfiability checker over intervals.

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
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import symexpr as sx
from .interval import Box, _mid, _vadd, _vclip, _vdiv, _vneg, _vsub
from .symexpr import _interval_eval_raw

RELATIONS = ("<=", ">=")

TRUE, FALSE, UNKNOWN = 1, 0, -1

EMPTY = None

PRUNE_ROUNDS = 3   # contraction rounds per box
BATCH = 128        # most boxes per pass; wider passes are fewer but take
                   # more boxes past a DELTA_SAT witness


def _is_count(v, least=0):
    """Whether v is an integer >= least, as operator.index takes, no bool."""
    return (hasattr(type(v), "__index__") and not isinstance(v, bool)
            and operator.index(v) >= least)


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
    passes: int                 # work-set passes (prune calls) of the search


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
_INNER, _LEAF = -1, -2
# The inverse kernel of each role with a sibling: target t, sibling f.
_INVERSE = {_ADD: _vsub, _SUB_L: _vadd, _SUB_R: lambda t, f: _vsub(f, t),
            _MUL: _vdiv}


class _Plan(list):
    """_hc4_plan's entries, with the program that _contract runs."""
    __slots__ = ("steps", "vars")


def _hc4_plan(tape):
    """Occurrences of the tape's tree that the backward pass visits.

    The walk descends from the root through add/sub/mul/neg only; other
    nodes end it (no contraction below them, which is sound).  Entries are
    ``(slot, how, parent entry, sibling slot, var index)`` in preorder,
    the order in which a recursive walk intersects the variables; an
    occurrence other than a var has _INNER, or _LEAF where the walk ends.

    The entries of one depth and role make a step of _contract, ordered
    by depth, then role: ``(how, a, b, parents' columns, sibling slots,
    slots)``, a:b being the step's columns of the target array, one per
    entry.  ``vars`` holds the var entries' columns and var indices in
    preorder.
    """
    nodes = tape.nodes
    plan = _Plan()
    depth = []
    stack = [(tape.root, _ROOT, -1, -1)]
    while stack:
        slot, how, parent, sib = stack.pop()
        op, _, idx, kids = nodes[slot]
        roles = _HC4_ROLES.get(op)
        me = len(plan)
        plan.append((slot, how, parent, sib, idx if op == "var" else
                     _INNER if roles else _LEAF))
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
        if roles is not None:
            # A binary operand's sibling is the other operand.
            children = list(zip(kids, roles, reversed(kids)))
            stack.extend((kid, how, me, sib)
                         for kid, how, sib in reversed(children))
    groups = {}
    for i, entry in enumerate(plan):
        groups.setdefault((depth[i], entry[1]), []).append(i)
    col, a = {-1: 0}, 0     # entry -> column; the root's parent is unread
    plan.steps = []
    for (_, how), group in sorted(groups.items()):
        slots, _, parents, sibs, _ = zip(*[plan[i] for i in group])
        k = len(group)
        col.update(zip(group, range(a, a + k)))
        plan.steps.append((how, a, a + k, np.array(
            [col[p] for p in parents]), np.array(sibs), np.array(slots)))
        a += k
    plan.vars = [(col[i], e[4]) for i, e in enumerate(plan) if e[4] >= 0]
    return plan


def _contract(plan, vals, boxes, target):
    """HC4 backward pass: contract boxes, an (n, 2, B) array, in place,
    assuming the root lies in target, given the forward enclosures vals of
    the tape's slots (from _interval_eval_raw).

    Returns the boxes that are refuted, a (B,) bool array.  An
    occurrence's target depends only on its parent's and forward values,
    so the sweep runs the plan's steps (see _hc4_plan): each gathers its
    parents' targets from a (2, N, B) array, runs one inverse kernel, and
    meets the result with its entries' forward enclosures into its
    columns.  Every meet is _vclip, by Python's rule for ties.  Variables
    are narrowed by it after the sweep, in preorder, as a recursive walk
    narrows them: a var's column is its target met with the box before the
    sweep, which holds the box as it narrows, so meeting the box with it
    gives the same bits.  A constant leaf c under a product is met like
    any leaf: its column is _vdiv(t, f) for its sibling f met with [c, c],
    empty where the quotient misses c.  The tests run once: empty columns
    (a leaf's meet with an enclosure that has a NaN end is never empty,
    and t is empty only below an empty meet) and empty boxes, a box being
    empty where a meet was.

    The recursive walk skips an operand of a product whose sibling's
    enclosure holds zero; the sweep need not.  There _vdiv gives the whole
    line, met to the operand's forward enclosure.  Below, every target
    holds the enclosure it is met with: forward kernels enclose their
    operands' image, so an inverse kernel, rounding outward, holds each
    operand's enclosure (or is NaN, which no comparison takes).  So
    nothing narrows, and no meet is empty.
    """
    ts = np.empty((2, len(plan), boxes.shape[2]))
    for how, a, b, parents, sibs, slots in plan.steps:
        t = target[:, :, None] if how == _ROOT else ts.take(parents, 1)
        if how == _NEG:
            t = _vneg(t)
        elif how != _ROOT:
            t = _INVERSE[how](t.reshape(2, -1), vals.take(sibs, 1).reshape(
                2, -1)).reshape(t.shape)
        ts[:, a:b] = _vclip(vals.take(slots, 1), t[0], t[1])
    for j, i in plan.vars:
        _vclip(boxes[i], ts[0, j], ts[1, j])
    return (np.logical_or.reduce(ts[0] > ts[1])
            | np.logical_or.reduce(boxes[:, 0] > boxes[:, 1]))


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
        lo, hi = vals[:, self.tape.root]
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
    ones before it contracted them.  A box's status is that of its
    enclosures before this pass contracted it.  HC4 sweeps only the live
    boxes, those to contract that no conjunct has refuted: in place when
    every box is, else gathered.
    """
    false = unknown = None
    for atom in atoms:
        vals = _interval_eval_raw(atom.tape, boxes)
        true, out = atom.status(vals)
        false, unknown = ((out, ~true) if false is None else
                          (false | out, unknown | ~true))
        live = contract & ~false
        n = np.count_nonzero(live)
        if n == len(live):
            false |= _contract(atom.plan, vals, boxes, atom.target)
        elif n:
            cols = live.nonzero()[0]
            sub = boxes.take(cols, 2)
            false[cols] |= _contract(atom.plan, vals.take(cols, 2), sub,
                                     atom.target)
            boxes[:, :, cols] = sub
    if false.all():
        return EMPTY
    return np.where(false, FALSE, np.where(unknown, UNKNOWN, TRUE))


@np.errstate(all="ignore")
def branch(boxes, delta):
    """Where to split each box of boxes, an (n, 2, B) array: at the
    midpoint of its widest dimension that is wider than delta and that
    floats can split, the lowest such dimension among equally wide ones.
    Returns (dims, mids), (B,) arrays; dims is -1 for a box with no such
    dimension."""
    lo, hi = boxes[:, 0], boxes[:, 1]
    mid = 0.5 * (lo + hi)       # in [lo, hi] and so _mid's, bar overflow
    mid = _mid(lo, hi) if np.isinf(mid).any() else mid
    width = hi - lo
    ok = (width > delta) & (lo < mid) & (mid < hi)
    dims = np.where(ok, width, -1.0).argmax(axis=0)
    return np.where(ok.any(axis=0), dims, -1), mid[dims, np.arange(len(dims))]


def check(phi, domains, delta, max_boxes=10_000_000):
    """Branch-and-prune decision over domains, a Box or a list of Boxes:
    UNSAT when no domain has a point that satisfies phi, else DELTA_SAT
    with the witness that depth-first search over the domains in order
    returns (see the module docstring).

    Raises ValueError for an unbounded domain, which bisection cannot
    split, an atom over a var beyond phi's arity, or a max_boxes that is
    not an integer >= 0 (as operator.index takes it, no bool);
    BudgetExhausted when depth-first search would explore more than
    max_boxes boxes.
    """
    if isinstance(domains, Box):
        domains = [domains]
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not _is_count(max_boxes):
        raise ValueError("max_boxes=%r: not an integer >= 0" % (max_boxes,))
    if not domains:
        raise ValueError("no domain")
    for domain in domains:
        if domain.arity != phi.arity:
            raise ValueError("domain arity %d != formula arity %d"
                             % (domain.arity, phi.arity))
        if not np.isfinite(domain.bounds).all():
            raise ValueError("unbounded domain %s" % (domain,))
    t0 = time.perf_counter()
    witness, explored, passes = _search(_atoms(phi.root), domains, delta,
                                        max_boxes)
    return DsatResult("UNSAT" if witness is None else "DELTA_SAT", witness,
                      explored, time.perf_counter() - t0, passes)


@np.errstate(all="ignore")
def _search(atoms, domains, delta, max_boxes):
    """The work-set search of check: (witness or None, boxes explored,
    passes).  Per box in path order, track holds its next pass (row 0:
    contraction round 0..PRUNE_ROUNDS - 1, or the status pass) and the
    boxes explored before it (row 1; last, before the end)."""
    boxes = np.array([d.bounds for d in domains]).transpose(1, 2, 0).copy()
    track = np.zeros((2, len(domains) + 1), int)
    witness, passes = None, 0
    while boxes.shape[2]:
        m = min(boxes.shape[2], BATCH)
        head = boxes[:, :, :m]
        # Depth-first search explores the front box after the track[1, 0]
        # boxes before it, and any witness lies at or after it.
        if track[1, 0] >= max_boxes:
            raise BudgetExhausted("explored more than %d boxes" % max_boxes)
        contract = track[0, :m] < PRUNE_ROUNDS
        prev = head.copy()
        status = prune(atoms, head, contract)
        passes += 1
        if status is EMPTY:
            status = np.full(m, FALSE)
        alive = status != FALSE
        done = alive & (~contract | (head == prev).all(axis=(0, 1)))
        dims, mids = branch(head, delta)    # read for the done boxes
        sat = done & ((dims < 0) | (status == TRUE))
        keep = alive ^ done
        cut, rest = m, slice(m, None)
        if sat.any():
            cut = int(sat.argmax())
            ends = head[:, :, cut]
            if dims[cut] >= 0:
                # Certainly satisfied somewhere in here: the midpoint is
                # a genuine witness, reported as a degenerate box.
                ends = _mid(ends[:, :1], ends[:, 1:]).repeat(2, axis=1)
            witness = Box(ends)
            # The path ends with the witness: the boxes after it go.
            rest = slice(boxes.shape[2], None)
            track[1, -1] = track[1, cut] + 1
        # The boxes before cut (none sat), each in place of its box: the
        # box itself while in process, its halves once split.
        count = np.add(alive[:cut], done[:cut], dtype=np.intp)
        src = np.arange(cut).repeat(count)
        new = head.take(src, 2)
        split = done[:cut].nonzero()[0]
        at, d, mid = count.cumsum()[split] - 2, dims[split], mids[split]
        new[d, 1, at] = mid
        new[d, 0, at + 1] = mid
        # A box in process goes on to its next round, a half starts at 0;
        # a finished box is explored, before the boxes after it (halves too).
        rounds, before = front = track[:, :cut]
        np.multiply(rounds + 1, keep[:cut], out=rounds)
        before += (~keep[:cut]).cumsum()
        track[1, rest] += cut - np.count_nonzero(keep[:cut])
        boxes = np.concatenate((new, boxes[:, :, rest]), axis=2)
        track = np.concatenate((front.take(src, 1), track[:, rest]), axis=1)
    if track[1, 0] > max_boxes:
        raise BudgetExhausted("explored more than %d boxes" % max_boxes)
    return witness, int(track[1, 0]), passes
