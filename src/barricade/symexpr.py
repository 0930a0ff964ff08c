"""Expression trees shared by the simulator, the LP generator and the checker.

A single Expr semantics is used everywhere: symbolic differentiation, the
s-expression serialization of certificate files, and one flat tape per
expression (`lower`), which the interval checker and the array evaluator
both run.  Keeping one semantics is what makes an UNSAT verdict from the
interval checker meaningful for the system that was simulated.

Trees are walked without recursion: `lower`, `arity`, `substitute`, `diff`
and `==` loop over one iterative post-order (`_postorder`), and the
s-expression writer runs on an explicit stack.  Only the scalar reference
`eval_expr` recurses, so controller size has no depth ceiling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

_INF = math.inf

# Argument bound beyond which sin/cos interval evaluation refuses to work
# (argument reduction accuracy degrades; the case study stays in [-pi, pi]).
TRIG_ARG_LIMIT = 1.0e6


class EvalError(ArithmeticError):
    """Division by zero, NaN propagation or domain violation during eval."""


class Expr:
    """Immutable expression node.

    op is one of: const, var, add, sub, mul, div, neg, pow, sin, cos,
    exp, tanh.  ``val`` holds the constant value (const) or the integer
    exponent (pow); ``idx`` holds the variable index (var).
    """

    __slots__ = ("op", "args", "val", "idx")

    def __init__(self, op, args=(), val=None, idx=None):
        self.op = op
        self.args = args
        self.val = val
        self.idx = idx

    def __repr__(self):
        return "Expr(%s)" % to_sexpr(self)

    def __eq__(self, other):
        """Structural equality, decided on the tapes, which keep the
        constants -0.0 and 0.0 apart."""
        if not isinstance(other, Expr):
            return NotImplemented
        return lower(self).nodes == lower(other).nodes

    def __hash__(self):
        return hash((self.op, self.val, self.idx, len(self.args)))


# ---------------------------------------------------------------------------
# Smart constructors (constant folding only; no algebraic rewriting).
# ---------------------------------------------------------------------------

def const(v):
    return Expr("const", val=float(v))


def var(i):
    if i < 0:
        raise ValueError("variable index must be nonnegative")
    return Expr("var", idx=int(i))


def _is_const(e, v=None):
    return e.op == "const" and (v is None or e.val == v)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.val + b.val)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("add", (a, b))


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.val - b.val)
    if _is_const(b, 0.0):
        return a
    return Expr("sub", (a, b))


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.val * b.val)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr("mul", (a, b))


def div(a, b):
    if _is_const(a) and _is_const(b) and b.val != 0.0:
        return const(a.val / b.val)
    if _is_const(b, 1.0):
        return a
    return Expr("div", (a, b))


def pow_(a, n):
    n = int(n)
    if n < 0:
        raise ValueError("pow exponent must be nonnegative")
    if n == 0:
        return const(1.0)
    if n == 1:
        return a
    if _is_const(a):
        return const(a.val ** n)
    return Expr("pow", (a,), val=n)


def _unary(op, fn):
    """The smart constructor of op, folding a constant argument with fn."""
    def build(a):
        if _is_const(a):
            return const(fn(a.val))
        return Expr(op, (a,))
    build.__name__ = op
    return build


neg = _unary("neg", operator.neg)
sin = _unary("sin", math.sin)
cos = _unary("cos", math.cos)
exp = _unary("exp", math.exp)
tanh = _unary("tanh", math.tanh)


def _postorder(e):
    """The distinct nodes of e (by identity), each after its arguments."""
    done = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        pending = [a for a in node.args if id(a) not in done]
        if pending:
            stack.append(node)
            stack.extend(reversed(pending))
        else:
            done.add(id(node))
            yield node


def arity(e):
    """1 + highest variable index occurring in e (0 for closed terms)."""
    return max((n.idx + 1 for n in _postorder(e) if n.op == "var"), default=0)


def substitute(e, mapping):
    """Replace var(i) by mapping[i] where present; rebuilds with folding."""
    new = {}    # id(node) -> its substitute
    for node in _postorder(e):
        args = tuple(new[id(a)] for a in node.args)
        if node.op == "var":
            out = mapping.get(node.idx, node)
        elif all(a is b for a, b in zip(args, node.args)):
            out = node
        elif node.op == "pow":
            out = pow_(args[0], node.val)
        else:
            out = _BUILDERS[node.op](*args)
        new[id(node)] = out
    return new[id(e)]


_BUILDERS = {
    "add": add, "sub": sub, "mul": mul, "div": div, "neg": neg,
    "sin": sin, "cos": cos, "exp": exp, "tanh": tanh,
}


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def eval_expr(e, point):
    """Evaluate e at a real vector.  Raises EvalError on /0 or NaN."""
    op = e.op
    if op == "const":
        return e.val
    if op == "var":
        return point[e.idx]
    if op == "add":
        r = eval_expr(e.args[0], point) + eval_expr(e.args[1], point)
    elif op == "sub":
        r = eval_expr(e.args[0], point) - eval_expr(e.args[1], point)
    elif op == "mul":
        r = eval_expr(e.args[0], point) * eval_expr(e.args[1], point)
    elif op == "div":
        d = eval_expr(e.args[1], point)
        if d == 0.0:
            raise EvalError("division by zero")
        r = eval_expr(e.args[0], point) / d
    elif op == "neg":
        r = -eval_expr(e.args[0], point)
    elif op == "pow":
        r = eval_expr(e.args[0], point) ** e.val
    elif op == "sin":
        r = math.sin(eval_expr(e.args[0], point))
    elif op == "cos":
        r = math.cos(eval_expr(e.args[0], point))
    elif op == "exp":
        try:
            r = math.exp(eval_expr(e.args[0], point))
        except OverflowError:
            raise EvalError("exp overflow") from None
    elif op == "tanh":
        r = math.tanh(eval_expr(e.args[0], point))
    else:
        raise EvalError("unknown op %r" % op)
    if r != r:
        raise EvalError("NaN produced at %s node" % op)
    return r


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def diff(e, i):
    """Symbolic partial derivative of e with respect to var(i)."""
    d = {}      # id(node) -> its derivative
    for node in _postorder(e):
        op = node.op
        if not node.args:
            out = const(1.0 if op == "var" and node.idx == i else 0.0)
        else:
            a, da = node.args[0], d[id(node.args[0])]
            if len(node.args) == 2:
                b, db = node.args[1], d[id(node.args[1])]
            if op == "add":
                out = add(da, db)
            elif op == "sub":
                out = sub(da, db)
            elif op == "mul":
                out = add(mul(da, b), mul(a, db))
            elif op == "div":
                out = div(sub(mul(da, b), mul(a, db)), pow_(b, 2))
            elif op == "neg":
                out = neg(da)
            elif op == "pow":
                out = mul(mul(const(node.val), pow_(a, node.val - 1)), da)
            elif op == "sin":
                out = mul(cos(a), da)
            elif op == "cos":
                out = neg(mul(sin(a), da))
            elif op == "exp":
                out = mul(exp(a), da)
            elif op == "tanh":
                # d/dv tanh(v) = 1 - tanh(v)^2
                out = mul(sub(const(1.0), pow_(tanh(a), 2)), da)
            else:
                raise ValueError("unknown op %r" % op)
        d[id(node)] = out
    return d[id(e)]


# ---------------------------------------------------------------------------
# Intervals and boxes
# ---------------------------------------------------------------------------

def _mid(lo, hi):
    """Midpoint of [lo, hi], also where lo + hi overflows."""
    mid = 0.5 * (lo + hi)
    if not lo <= mid <= hi:     # lo + hi overflowed
        mid = 0.5 * lo + 0.5 * hi
    return mid


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        # [inf, inf] and [-inf, -inf] hold no real number.
        if not (self.lo <= self.hi and self.lo < _INF and self.hi > -_INF):
            raise ValueError("empty interval: [%r, %r]" % (self.lo, self.hi))

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return _mid(self.lo, self.hi)

    def contains(self, x):
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Box:
    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))

    @property
    def arity(self):
        return len(self.intervals)

    def __getitem__(self, i):
        return self.intervals[i]

    def __iter__(self):
        return iter(self.intervals)

    def midpoint(self):
        return [iv.mid for iv in self.intervals]

    def max_width(self):
        return max(iv.width for iv in self.intervals)

    def contains(self, point):
        return all(iv.contains(x) for iv, x in zip(self.intervals, point))

    def replace(self, i, interval):
        ivs = list(self.intervals)
        ivs[i] = interval
        return Box(tuple(ivs))


def box(*bounds):
    """box((lo, hi), (lo, hi), ...) convenience constructor."""
    return Box(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))


# Low-level interval kernels work on (lo, hi) float pairs for speed; every
# rounding-prone primitive is widened outward by at least one ulp per
# endpoint, which keeps containment sound without touching FPU modes.

_nextafter = math.nextafter


def _widen(lo, hi, n=1):
    for _ in range(n):
        lo = _nextafter(lo, -_INF)
        hi = _nextafter(hi, _INF)
    return lo, hi


def _iadd(a, b):
    return (_nextafter(a[0] + b[0], -_INF), _nextafter(a[1] + b[1], _INF))


def _isub(a, b):
    return (_nextafter(a[0] - b[1], -_INF), _nextafter(a[1] - b[0], _INF))


def _imul(a, b):
    a0, a1 = a
    b0, b1 = b
    p0 = a0 * b0
    p1 = a0 * b1
    p2 = a1 * b0
    p3 = a1 * b1
    s = p0 + p1 + p2 + p3
    if s != s:  # 0*inf -> treat as 0 contribution
        p0, p1, p2, p3 = [0.0 if x != x else x for x in (p0, p1, p2, p3)]
    return (_nextafter(min(p0, p1, p2, p3), -_INF),
            _nextafter(max(p0, p1, p2, p3), _INF))


def _idiv(a, b):
    if b[0] <= 0.0 <= b[1]:
        return (-_INF, _INF)
    p = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    s = p[0] + p[1] + p[2] + p[3]
    if s != s:  # inf/inf, or both infinities among p: the whole line
        return (-_INF, _INF)
    return _widen(min(p), max(p))


def _ineg(a):
    return (-a[1], -a[0])


def _pow(x, n):
    """x ** n, infinite where the float result overflows."""
    try:
        return x ** n
    except OverflowError:
        return -_INF if x < 0.0 and n % 2 else _INF


def _ipow(a, n):
    lo, hi = a
    cands = [_pow(lo, n), _pow(hi, n)]
    if n % 2 == 0 and lo < 0.0 < hi:
        cands.append(0.0)
    out = _widen(min(cands), max(cands), 3)
    if n % 2 == 0:
        out = (max(out[0], 0.0), out[1])
    return out


def _iexp(a):
    try:
        lo = math.exp(a[0])
    except OverflowError:
        lo = _INF
    try:
        hi = math.exp(a[1])
    except OverflowError:
        hi = _INF
    lo, hi = _widen(lo, hi, 2)
    return (max(lo, 0.0), hi)


def _itanh(a):
    lo, hi = _widen(math.tanh(a[0]), math.tanh(a[1]), 2)
    return (max(lo, -1.0), min(hi, 1.0))


_TWO_PI = 2.0 * math.pi


def _trig_has_crit(lo, hi, offset):
    """Does [lo, hi] (slightly expanded) contain offset + 2*pi*k for some k?"""
    slack = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    k_lo = math.ceil((lo - slack - offset) / _TWO_PI)
    k_hi = math.floor((hi + slack - offset) / _TWO_PI)
    return k_lo <= k_hi


def _itrig(a, fn, top, bottom):
    """fn (sin or cos) over a, which peaks at top + 2*pi*k and bottoms out
    at bottom + 2*pi*k."""
    lo, hi = a
    if max(abs(lo), abs(hi)) > TRIG_ARG_LIMIT:
        raise EvalError("sin/cos argument magnitude exceeds %g" % TRIG_ARG_LIMIT)
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    vlo, vhi = sorted((fn(lo), fn(hi)))
    if _trig_has_crit(lo, hi, top):
        vhi = 1.0
    if _trig_has_crit(lo, hi, bottom):
        vlo = -1.0
    vlo, vhi = _widen(vlo, vhi, 2)
    return (max(vlo, -1.0), min(vhi, 1.0))


_isin = partial(_itrig, fn=math.sin, top=math.pi / 2, bottom=-math.pi / 2)
_icos = partial(_itrig, fn=math.cos, top=0.0, bottom=math.pi)


_KERNELS = {
    "add": _iadd, "sub": _isub, "mul": _imul, "div": _idiv, "neg": _ineg,
    "sin": _isin, "cos": _icos, "exp": _iexp, "tanh": _itanh,
}


# ---------------------------------------------------------------------------
# Flat interval tape
# ---------------------------------------------------------------------------

class Tape:
    """An expression lowered to a flat program over (lo, hi) pairs.

    ``nodes[s]`` is the subterm in slot s as ``(op, val, idx, child
    slots)``.  Slots are in topological order (children first) and
    structurally equal subterms share one, so a forward pass evaluates
    each distinct subterm once.  ``root`` is the slot of the expression.
    """

    __slots__ = ("nodes", "root", "init", "loads", "code")

    def __init__(self, nodes, root):
        self.nodes = nodes
        self.root = root
        self.init = [None] * len(nodes)   # constants, pre-placed
        self.loads = []                   # (slot, variable index)
        self.code = []                    # (slot, kernel, arg, arg or None)
        for slot, (op, val, idx, kids) in enumerate(nodes):
            if op == "const":
                self.init[slot] = (val[0], val[0])
            elif op == "var":
                self.loads.append((slot, idx))
            elif op == "pow":
                self.code.append((slot, partial(_ipow, n=val), kids[0], None))
            elif op in _KERNELS:
                self.code.append((slot, _KERNELS[op], kids[0],
                                  kids[1] if len(kids) == 2 else None))
            else:
                raise EvalError("unknown op %r" % op)


def lower(e):
    """Lower e to a Tape."""
    slot_of = {}    # id(node) -> slot
    key_slot = {}   # (op, val, idx, child slots) -> slot
    nodes = []
    for node in _postorder(e):
        val = node.val
        if node.op == "const":
            # -0.0 == 0.0, yet the two constants are kept apart.
            val = (val, math.copysign(1.0, val))
        key = (node.op, val, node.idx,
               tuple(slot_of[id(a)] for a in node.args))
        slot = key_slot.get(key)
        if slot is None:
            slot = key_slot[key] = len(nodes)
            nodes.append(key)
        slot_of[id(node)] = slot
    return Tape(nodes, slot_of[id(e)])


def _interval_eval_raw(tape, bx):
    """Forward interval evaluation of a tape over a box of (lo, hi) pairs.

    Returns the enclosure of every slot, which the checker's HC4 backward
    pass reads.
    """
    vals = tape.init[:]
    for slot, i in tape.loads:
        vals[slot] = bx[i]
    for slot, fn, a, b in tape.code:
        vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
    return vals


def interval_eval(e, bx):
    """Sound interval enclosure of e over box bx.

    Division by an interval containing zero, or with a quotient inf/inf,
    yields the whole line, which callers must treat as "no information".
    """
    tape = lower(e)
    vals = _interval_eval_raw(tape, [(iv.lo, iv.hi) for iv in bx])
    return Interval(*vals[tape.root])


_ARRAY_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "neg": operator.neg, "pow": operator.pow,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
}


def compile_expr(e):
    """e as a callable f(p) over numpy arrays, p[i] being var(i): the tape
    of e run with numpy's operators (which may round differently from
    eval_expr; no division or NaN check), constants as 0-d arrays, which
    numpy combines with an array about twice as fast as a float."""
    tape = lower(e)
    nodes = tape.nodes
    last_read = {k: s for s, node in enumerate(nodes) for k in node[3]}
    init, loads, code, free, reg = [], [], [], [], []
    for slot, (op, val, idx, kids) in enumerate(nodes):
        args = [reg[k] for k in kids]
        if op == "pow":     # the integer exponent gets a register
            args.append(len(init))
            init.append(val)
        # Computed registers are reused after their slot's last read, so
        # no more arrays stay referenced than are ever live at once.
        free.extend(reg[k] for k in dict.fromkeys(kids)
                    if last_read[k] == slot and nodes[k][3])
        if not (kids and free):
            free.append(len(init))
            init.append(np.array(val[0]) if op == "const" else None)
        reg.append(free.pop())
        if op == "var":
            loads.append((reg[slot], idx))
        elif kids:
            code.append((reg[slot], _ARRAY_OPS[op], args[0],
                         args[1] if len(args) == 2 else None))
    root = reg[tape.root]

    def f(p):
        r = init[:]
        for dst, i in loads:
            r[dst] = p[i]
        for dst, fn, a, b in code:
            r[dst] = fn(r[a]) if b is None else fn(r[a], r[b])
        return r[root]
    return f


# ---------------------------------------------------------------------------
# S-expression serialization (certificate files)
# ---------------------------------------------------------------------------

def to_sexpr(e):
    """e as an s-expression, e.g. ``(add (const 2.0) (sin (var 1)))``."""
    out = []
    stack = [e]     # nodes still to write, and the text that follows them
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.op == "const":
            out.append("(const %r)" % node.val)
        elif node.op == "var":
            out.append("(var %d)" % node.idx)
        else:
            out.append("(" + node.op)
            stack.append(" %d)" % node.val if node.op == "pow" else ")")
            for a in reversed(node.args):
                stack += (a, " ")
    return "".join(out)
