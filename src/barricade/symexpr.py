"""Expression trees shared by the simulator, the LP generator and the checker.

One Expr semantics serves the certificate files' s-expressions and one
flat tape per expression (`lower`), which the interval checker and the
array evaluator both run, so an UNSAT verdict speaks of the system that
was simulated.  A controller is one node, `net` (output k of a network
applied to input expressions), run a layer at a time by each evaluator,
so a tree's size does not grow with the network's.  `Box` and `box` are
re-exported from `interval`.  Only the scalar reference `eval_expr`
recurses: the other walks loop over one iterative post-order.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partial

import numpy as np

from . import network as nn
from .interval import (Box, box, _VKERNELS, _vmulc, _vpow, _inet,
                       _net_layers, _vsincos)


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
        """Structural equality, decided on the tape nodes (no Tape is
        built), which keep the constants -0.0 and 0.0 apart."""
        if not isinstance(other, Expr):
            return NotImplemented
        return _lowered(self)[0] == _lowered(other)[0]

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

class EvalError(ArithmeticError):
    """Division by zero, overflow or NaN in eval_expr."""


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

    A forward pass over B boxes writes slot s's enclosure to v[:, s] of
    one (2, S, B) array v, see _interval_eval_raw.  ``consts`` holds the
    constants' slots and (k, 2, 1) values, ``loads`` the variables' slots
    and indices.  ``code`` holds ``(slot, kernel, arg, arg)`` for a unary
    (second arg None) or binary op, ``(slot, _vmulc with c bound, arg,
    None)`` for a product by a constant factor c (`_factor`), and ``(rows,
    kernel, None, input slots)`` for a network pass, which writes output k
    to slot rows[k]: its row's, or the network's own (read by nothing).
    The sin and cos of one argument share one such entry (_vsincos).
    """

    __slots__ = ("nodes", "root", "consts", "loads", "code")

    def __init__(self, nodes, root):
        self.nodes = nodes
        self.root = root
        self.code = []                    # (slot, kernel, arg, arg or None)
        consts, loads, rows, trig = {}, {}, {}, {}
        for slot, (op, _, _, kids) in enumerate(nodes):
            if op in ("sin", "cos"):
                trig.setdefault(kids[0], {})[op] = slot
        for slot, (op, val, idx, kids) in enumerate(nodes):
            if op in ("sin", "cos"):
                # at the first of sin and cos of its argument, both
                outs = trig.pop(kids[0], None)
                if outs:
                    self.code.append((list(outs.values()), partial(
                        _vsincos, ops=tuple(outs)), None, list(kids)))
            elif op == "const":
                consts[slot] = val[0]
            elif op == "var":
                loads[slot] = idx
            elif op == "pow":
                self.code.append((slot, partial(_vpow, n=val), kids[0], None))
            elif op == "net":
                rows[slot] = [slot] * val.output_dim
                self.code.append((rows[slot], partial(_inet, _net_layers(
                    val)), None, list(kids)))
            elif op == "row":
                rows[kids[0]][val] = slot
            elif op == "mul" and any(_factor(nodes[k]) for k in kids):
                a, k = kids if _factor(nodes[kids[1]]) else kids[::-1]
                self.code.append((slot, partial(_vmulc, c=nodes[k][1][0]),
                                  a, None))
            elif op in _VKERNELS:
                self.code.append((slot, _VKERNELS[op], kids[0],
                                  kids[1] if len(kids) == 2 else None))
            else:
                raise ValueError("unknown op %r" % op)
        c = np.array(list(consts.values()), float).repeat(2)
        self.consts = list(consts), c.reshape(-1, 2, 1)
        self.loads = list(loads), list(loads.values())


def _factor(node):
    """Is the tape node a finite, nonzero constant (see interval._vmulc)?"""
    op, val = node[:2]
    return op == "const" and val[0] != 0.0 and math.isfinite(val[0])


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

    Returns the S slots' enclosures, which HC4 reads, as one new (2, S,
    B) array v, slot s's being v[:, s], written by the kernels through
    out=.  v is the transpose of an (S, 2, B) array, so no slot overlaps
    another, which would make numpy copy a kernel's operands."""
    slots = np.empty((len(tape.nodes), 2, boxes.shape[2]))
    vals = list(slots)      # the (2, B) block of each slot
    slots[tape.consts[0]] = tape.consts[1]
    # a copy: the HC4 pass narrows boxes in place
    slots[tape.loads[0]] = boxes[tape.loads[1]]
    for slot, fn, a, b in tape.code:
        if b is None:
            fn(vals[a], out=vals[slot])
        elif a is None:     # a network pass over the slots b
            slots[slot] = fn(slots[b].transpose(2, 1, 0)).transpose(2, 1, 0)
        else:
            fn(vals[a], vals[b], out=vals[slot])
    return slots.transpose(1, 0, 2)


def interval_eval(e, bx):
    """Sound interval enclosure (lo, hi), two floats, of e over box bx:
    the checker's forward pass on one box.  A divisor holding zero, a
    quotient inf/inf, a sin or cos argument beyond TRIG_ARG_LIMIT, and an
    enclosure that holds no real number (a NaN end, [inf, inf] or [-inf,
    -inf]) give the whole line: no information."""
    tape = lower(e)
    v = _interval_eval_raw(tape, bx.bounds.reshape(-1, 2, 1))
    lo, hi = v[:, tape.root, 0].tolist()
    if not (lo < math.inf and hi > -math.inf):  # False for a NaN end too
        return -math.inf, math.inf
    return lo, hi


# The ufunc that each op's numpy operator calls on arrays, so a program
# rounds as the operators do; `a ** 2` calls square.
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide, "neg": np.negative, "pow": np.power,
           "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}
_GLOBALS = {f.__name__: f for f in (
    *_UFUNCS.values(), np.square, np.matmul, np.copyto, np.empty,
    nn.batch_arrays)} | {"one": 1.0}
# A layer's activation in place on its register {0}; sigmoid 1/(1+exp(-y))
_ACTIVATIONS = {"tanh": ("tanh({0}, {0})",), "identity": (),
                "sigmoid": ("negative({0}, {0})", "exp({0}, {0})",
                            "add(one, {0}, {0})", "divide(one, {0}, {0})")}
# Each distinct source is compiled once: compiling anew fragments the heap.
_compiled = lru_cache(32)(partial(compile, filename="<program>", mode="exec"))


def array_program(exprs, rows=False):
    """The expressions as one straight-line numpy function of p, p[i]
    being var(i): run(p) returns exprs[0]; with rows, run(p, out=None)
    writes exprs[i] at the columns of the (n, B) array p into row i of out
    (made when None).  Each slot's ufunc writes through its positional out
    into its row of out or a register, reused after the slot's last read:
    run.bind(B) allocates the registers of width B and returns step(p,
    out), which allocates no data (p C-contiguous); run binds per call.
    Constants (0-d arrays, twice as fast as floats), exponents and
    networks are names, never source text.  A network is one matrix
    product per layer, over p's rows when its inputs are var(0..q-1) in
    order.  It may round differently from eval_expr in the last bits."""
    nodes, *roots = _lowered(*exprs)
    direct = {s for s, (op, _, _, kids) in enumerate(nodes) if op == "net"
              and [nodes[k][::2] for k in kids]
              == [("var", i) for i in range(len(kids))]}
    # A direct network reads p's rows, not its inputs' registers.
    last_read = {k: s for s, node in enumerate(nodes) if s not in direct
                 for k in node[3]}
    ns = dict(_GLOBALS)
    setup, body = [], []        # the lines of bind and of step
    names, regs, free = [], [], []
    for slot, (op, val, idx, kids) in enumerate(nodes):
        args = [names[k] for k in kids]
        free.extend(names[k] for k in dict.fromkeys(kids)
                    if names[k] in regs and last_read[k] == slot)
        copies = [i for i, root in enumerate(roots) if rows and root == slot]
        name = "v%d" % slot
        if op == "const":
            ns[name] = np.array(val[0])
        elif op == "var":
            if slot in last_read or slot in roots:
                body.append("%s = p[%d]" % (name, idx))
        elif op == "net":
            ns[name] = val
            x = "p[:%d]" % len(kids)
            if slot not in direct:
                x = "y%d" % slot
                setup.append("%s = empty([%d, width])" % (x, len(kids)))
                body += ["copyto(%s[%d], %s)" % (x, i, a)
                         for i, a in enumerate(args)]
            setup.append("a = batch_arrays(%s, width)" % name)
            for j, layer in enumerate(val.layers):
                h = "h%d_%d" % (slot, j)
                setup += ["%s = empty([%d, width])" % (h, layer.d_out),
                          "w{0}, b{0} = a[{1}][:2]".format(h, j)]
                body += [line.format(h, x) for line in (
                    "matmul(w{0}, {1}, {0})", "add({0}, b{0}, {0})",
                    *_ACTIVATIONS[layer.activation])]
                x = h
            name = x
        elif op == "row":
            setup.append("%s = %s[%d]" % (name, args[0], val))
        else:
            fn = np.square if (op, val) == ("pow", 2) else _UFUNCS[op]
            if fn is np.power:
                args.append("n%d" % slot)
                ns[args[-1]] = val
            if copies:
                name = "out[%d]" % copies.pop(0)
            elif free:
                name = free.pop()
            else:
                name = "r%d" % len(regs)
                regs.append(name)
            body.append("%s(%s)" % (fn.__name__, ", ".join(args + [name])))
        body += ["copyto(out[%d], %s)" % (i, name) for i in copies]
        names.append(name)
    if regs:
        setup.insert(0, "%s, = empty([%d, width])" % (", ".join(regs),
                                                      len(regs)))
    body.append("return " + ("out" if rows else names[roots[0]]))
    exec(_compiled("\n    ".join(
        ["def bind(width):", *setup, "def step(p, out):",
         *("    " + line for line in body), "return step"])), ns)
    bind = ns.pop("bind")     # no cycle through the namespace
    n_rows = len(exprs)

    def run(p, out=None):
        p = np.ascontiguousarray(p, dtype=float)
        if rows and out is None:
            out = np.empty((n_rows, p.shape[1]))
        return bind(p.shape[1])(p, out)
    run.bind = bind
    return run


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
