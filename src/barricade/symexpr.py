"""Expression trees shared by the simulator, the LP generator and the checker.

A single Expr semantics is used everywhere: the s-expression serialization
of certificate files, and one flat tape per expression (`lower`), which
the interval checker and the array evaluator both run.  Keeping one
semantics is what makes an UNSAT verdict from the interval checker
meaningful for the system that was simulated.

A controller is one node, `net`: output k of a network applied to input
expressions.  Each evaluator runs it a layer at a time: the interval
checker with one interval matrix product per box and layer
(`interval._inet`), the array evaluator with one matrix product per
layer, the scalar reference with `network.forward`.  So a tree's size
does not grow with the network's.  The interval types and kernels live in
`interval`; the types are re-exported here.

Trees are walked without recursion: `lower`, `arity`, `substitute` and
`==` loop over one iterative post-order (`_postorder`), and the
s-expression writer runs on an explicit stack.  Only the scalar reference
`eval_expr` recurses.
"""

from __future__ import annotations

import math
import operator
from functools import cache, lru_cache, partial

import numpy as np

from . import network as nn
from .interval import (EvalError, Interval, Box, box, TRIG_ARG_LIMIT,
                       _VKERNELS, _vpow, _inet, _net_layers, _trig_bad)


class Expr:
    """Immutable expression node.

    op is one of: const, var, add, sub, mul, div, neg, pow, sin, cos,
    exp, tanh, net.  ``val`` holds the constant value (const), the integer
    exponent (pow) or ``(network, k)`` (net, whose args are the network's
    inputs); ``idx`` holds the variable index (var).
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


def net(network, k, inputs):
    """Output k of network (a network.Network) applied to the input
    expressions.  Folds to a constant when the inputs cannot reach the
    output: all of them are constants, or the first layer's weights are
    all zero (as the unrolled sums of network.to_expr fold)."""
    inputs = tuple(inputs)
    if len(inputs) != network.input_dim or not 0 <= k < network.output_dim:
        raise ValueError("network with %d inputs and %d outputs has no "
                         "output %r of %d inputs" % (network.input_dim,
                                                     network.output_dim, k,
                                                     len(inputs)))
    if (all(_is_const(a) for a in inputs)
            or not any(any(row) for row in network.layers[0].weights)):
        y = [a.val if _is_const(a) else 0.0 for a in inputs]
        return const(nn.forward(network, y)[k])
    return Expr("net", inputs, val=(network, k))


def _postorder(*roots):
    """Distinct nodes of the roots (by identity), each after its arguments."""
    done = set()
    stack = list(reversed(roots))
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
        elif node.op == "net":
            out = net(*node.val, args)
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
    if op == "net":
        network, k = e.val
        try:
            r = nn.forward(network, [eval_expr(a, point) for a in e.args])[k]
        except OverflowError:   # a sigmoid's exp
            raise EvalError("exp overflow") from None
    elif op == "add":
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
# Flat interval tape
# ---------------------------------------------------------------------------

class Tape:
    """An expression lowered to a flat program over B boxes at once.

    ``nodes[s]`` is the subterm in slot s as ``(op, val, idx, child
    slots)``.  Slots are in topological order (children first) and
    structurally equal subterms share one, so a forward pass evaluates
    each distinct subterm once.  ``root`` is the slot of the expression.
    A net node takes two slots: ``("net", network, None, input slots)``
    runs the network, and ``("row", k, None, (net slot,))`` picks output
    k, so the outputs of one network call share one pass.

    A slot's value is a (2, B) array of lower and upper endpoints, see
    interval._VKERNELS; ``init`` holds the constants as (2, 1) arrays.
    ``code`` holds ``(slot, kernel, arg, arg)`` for a unary (second arg
    None) or binary op, and ``(slot, kernel, None, input slots)`` for a
    network pass.  ``trig`` lists the argument slots of sin and cos, whose
    boxes fail beyond interval.TRIG_ARG_LIMIT.
    """

    __slots__ = ("nodes", "root", "init", "loads", "code", "trig")

    def __init__(self, nodes, root):
        self.nodes = nodes
        self.root = root
        self.init = [None] * len(nodes)   # constants, pre-placed
        self.loads = []                   # (slot, variable index)
        self.code = []                    # (slot, kernel, arg, arg or None)
        self.trig = []
        for slot, (op, val, idx, kids) in enumerate(nodes):
            if op == "const":
                self.init[slot] = np.array(((val[0],), (val[0],)))
            elif op == "var":
                self.loads.append((slot, idx))
            elif op == "pow":
                self.code.append((slot, partial(_vpow, n=val), kids[0], None))
            elif op == "net":
                self.code.append((slot, partial(_inet, _net_layers(val)),
                                  None, kids))
            elif op == "row":
                self.code.append((slot, operator.itemgetter(val), kids[0],
                                  None))
            elif op in _VKERNELS:
                self.code.append((slot, _VKERNELS[op], kids[0],
                                  kids[1] if len(kids) == 2 else None))
                if op in ("sin", "cos"):
                    self.trig.append(kids[0])
            else:
                raise EvalError("unknown op %r" % op)


def lower(e):
    """Lower e to a Tape."""
    return Tape(*_lowered(e))


def _lowered(*exprs):
    """The joint Tape nodes of the expressions, then the slot of each."""
    slot_of = {}    # id(node) -> slot
    key_slot = {}   # (op, val, idx, child slots) -> slot
    nodes = []

    def intern(key):
        slot = key_slot.get(key)
        if slot is None:
            slot = key_slot[key] = len(nodes)
            nodes.append(key)
        return slot

    for node in _postorder(*exprs):
        op, val = node.op, node.val
        kids = tuple(slot_of[id(a)] for a in node.args)
        if op == "const":
            # -0.0 == 0.0, yet the two constants are kept apart.
            val = (val, math.copysign(1.0, val))
        elif op == "net":
            network, val = val
            op, kids = "row", (intern(("net", network, None, kids)),)
        slot_of[id(node)] = intern((op, val, node.idx, kids))
    return (nodes, *(slot_of[id(e)] for e in exprs))


@np.errstate(all="ignore")
def _interval_eval_raw(tape, boxes):
    """Forward interval evaluation of a tape over B boxes: boxes is an
    (n, 2, B) array, box b's dimension i being [boxes[i, 0, b],
    boxes[i, 1, b]].

    Returns the enclosure of every slot, a (2, B) array ((2, 1) for a
    constant), which the checker's HC4 pass reads, and the boxes on which
    evaluation fails, a sin or cos argument exceeding TRIG_ARG_LIMIT in
    magnitude: a (B,) bool array, or None when the tape has no sin or cos.
    A network's outputs are stored (m, 2, B), so row k is a slot value.
    """
    vals = tape.init[:]
    for slot, i in tape.loads:
        # a copy: the HC4 pass narrows boxes in place
        vals[slot] = boxes[i].copy()
    for slot, fn, a, b in tape.code:
        if b is None:
            vals[slot] = fn(vals[a])
        elif a is None:     # a network pass over the slots b
            ins = np.stack(np.broadcast_arrays(*[vals[k] for k in b]), 2)
            vals[slot] = fn(ins.transpose(1, 0, 2)).transpose(2, 1, 0)
        else:
            vals[slot] = fn(vals[a], vals[b])
    bad = None
    for slot in tape.trig:
        out = _trig_bad(vals[slot])
        bad = out if bad is None else bad | out
    return vals, bad


def interval_eval(e, bx):
    """Sound interval enclosure of e over box bx: the checker's forward
    pass on one box.

    Division by an interval containing zero, or with a quotient inf/inf,
    yields the whole line, which callers must treat as "no information".
    Raises EvalError for a sin or cos argument beyond TRIG_ARG_LIMIT.
    """
    tape = lower(e)
    boxes = np.array([(iv.lo, iv.hi) for iv in bx], dtype=float)
    vals, bad = _interval_eval_raw(tape, boxes.reshape(-1, 2, 1))
    if bad is not None and bad.any():
        raise EvalError("sin/cos argument magnitude exceeds %g"
                        % TRIG_ARG_LIMIT)
    (lo,), (hi,) = vals[tape.root].tolist()
    return Interval(lo, hi)


# The ufunc that each op's numpy operator calls on arrays, so a program
# rounds as the operators do; `a ** 2` calls square.
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide, "neg": np.negative, "pow": np.power,
           "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}
_GLOBALS = {f.__name__: f for f in (
    *_UFUNCS.values(), np.square, np.array, np.asarray, np.ascontiguousarray,
    np.broadcast_arrays, np.empty)} | {"one": 1.0}
# Each distinct source is compiled once: compiling anew fragments the heap.
_compiled = lru_cache(32)(partial(compile, filename="<program>", mode="exec"))


def array_program(exprs, rows=False):
    """The expressions as one straight-line numpy function of p, p[i]
    being var(i): run(p) returns exprs[0]; with rows, run(p, out=None)
    writes exprs[i] at the columns of the (n, B) array p into row i of out
    (made when None).  Constants (0-d arrays, which numpy combines with an
    array about twice as fast as a float), exponents and networks are
    names in its namespace, never source text.  A network is one matrix
    product per layer, with batch_arrays, over its inputs stacked, or p's
    own rows when they are var(0..q-1) in order.  It may round differently
    from eval_expr in the last bits and makes no division or NaN check."""
    nodes, *roots = _lowered(*exprs)
    direct = {s for s, (op, _, _, kids) in enumerate(nodes) if op == "net"
              and [nodes[k][::2] for k in kids]
              == [("var", i) for i in range(len(kids))]}
    # A direct network reads p's rows, not its inputs' registers.
    last_read = {k: s for s, node in enumerate(nodes) if s not in direct
                 for k in node[3]}
    ns = dict(_GLOBALS)
    lines = ["def run(p, out=None):"]
    if rows:
        lines += ["p = asarray(p, dtype=float)", "if out is None: out = "
                  "empty((%d, p.shape[1]))" % len(exprs)]
    names, free = [], []
    for slot, (op, val, idx, kids) in enumerate(nodes):
        args = [names[k] for k in kids]
        # A slot's register is reused after its last read, so no more
        # arrays stay referenced than are ever live at once.
        free.extend(names[k] for k in dict.fromkeys(kids)
                    if nodes[k][3] and last_read[k] == slot)
        name = free.pop() if kids and free else "r%d" % slot
        copies = [i for i, root in enumerate(roots) if rows and root == slot]
        if op == "const":
            ns[name] = np.array(val[0])
        elif op == "var":
            if slot in last_read or slot in roots:
                lines.append("%s = p[%d]" % (name, idx))
        elif op == "net":
            ns["a%d" % slot] = cache(partial(nn.batch_arrays, val))
            lines += ["y = " + ("ascontiguousarray(p[:%d])" % len(kids)
                                if slot in direct else
                                "array(broadcast_arrays(%s))"
                                % ", ".join(args)),
                      "a = a%d(y.shape[1])" % slot]
            for j, layer in enumerate(val.layers):
                lines += ["%s = a[%d][0] @ %s" % (name, j, name if j else "y"),
                          "%s += a[%d][1]" % (name, j)]
                if layer.activation == "tanh":
                    lines.append("tanh(%s, out=%s)" % (name, name))
                elif layer.activation == "sigmoid":
                    lines.append("{0} = divide(one, add(one, exp(negative("
                                 "{0}))))".format(name))
        elif op == "row":
            lines.append("%s = %s[%d]" % (name, args[0], val))
        else:
            fn = np.square if (op, val) == ("pow", 2) else _UFUNCS[op]
            if fn is np.power:
                args.append("n%d" % slot)
                ns[args[-1]] = val
            if copies:
                args.append("out=out[%d]" % copies.pop(0))
            lines.append("%s = %s(%s)" % (name, fn.__name__, ", ".join(args)))
        lines += ["out[%d] = %s" % (i, name) for i in copies]
        names.append(name)
    lines.append("return " + ("out" if rows else names[roots[0]]))
    exec(_compiled("\n    ".join(lines)), ns)
    return ns.pop("run")      # no cycle through the namespace


def compile_expr(e):
    """e as f(p) over numpy arrays, p[i] being var(i): array_program([e])."""
    return array_program([e])


# ---------------------------------------------------------------------------
# S-expression serialization (certificate files)
# ---------------------------------------------------------------------------

def to_sexpr(e):
    """e as an s-expression, e.g. ``(add (const 2.0) (sin (var 1)))``; a
    net node is ``(net <network.controller_hash> k inputs...)``."""
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
            head = node.op
            if head == "net":
                head = "net %s %d" % (nn.controller_hash(node.val[0]),
                                      node.val[1])
            out.append("(" + head)
            stack.append(" %d)" % node.val if node.op == "pow" else ")")
            for a in reversed(node.args):
                stack += (a, " ")
    return "".join(out)
