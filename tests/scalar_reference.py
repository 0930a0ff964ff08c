"""The checker's scalar reference: outward-rounded interval kernels over
(lo, hi) float pairs, one box at a time, and a forward pass over a tape
built on them.  The batched kernels of barricade.interval, which the
checker runs, must give every box these enclosures bit for bit
(tests/test_symexpr.py compares them).  Nothing in the package imports
this module.
"""

import math
from functools import partial

import numpy as np

from barricade import interval as iv
from barricade.interval import TRIG_ARG_LIMIT, _TWO_PI, _exp, _pow

_INF = math.inf

# The kernels work on (lo, hi) float pairs; every rounding-prone primitive
# is widened outward by at least one ulp per endpoint, which keeps
# containment sound without touching FPU modes.

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
    lo, hi = _widen(_exp(a[0]), _exp(a[1]), 2)
    return (max(lo, 0.0), hi)


def _itanh(a):
    lo, hi = _widen(math.tanh(a[0]), math.tanh(a[1]), 2)
    return (max(lo, -1.0), min(hi, 1.0))


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
    if not (abs(lo) <= TRIG_ARG_LIMIT and abs(hi) <= TRIG_ARG_LIMIT):
        return (-_INF, _INF)    # NaN included
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


_ONE = (1.0, 1.0)


def _isigmoid(a):
    """1 / (1 + exp(-a)), composed of the kernels of the unrolled form."""
    return _idiv(_ONE, _iadd(_ONE, _iexp(_ineg(a))))


_KERNELS = {
    "add": _iadd, "sub": _isub, "mul": _imul, "div": _idiv, "neg": _ineg,
    "sin": _isin, "cos": _icos, "exp": _iexp, "tanh": _itanh,
}


_TANH_GRID = [math.tanh(k / 128.0) for k in range(2561)]


def _scalar_tanh(z):
    """interval._ntanh on one Python float, in the same operations: the
    nearest point g = k/128 of the grid on [0, 20], the series of
    tanh(|z| - g) to the 7th power and the addition formula."""
    x = abs(z)
    k = round((x if x <= 20.0 else 20.0) * 128.0)   # ties to even, as rint
    r = (20.0 if x > 20.0 else x) - k / 128.0
    r2 = r * r
    tau = r * (r2 * (-1.0 / 3.0 + r2 * (2.0 / 15.0 + r2 * (-17.0 / 315.0))))
    tau += r
    t = _TANH_GRID[k]
    return math.copysign((t + tau) / (1.0 + t * tau), z)


def _scalar_net(layers, ins):
    """One box's network pass in the scalar layout: its input rows
    (lo, hi), one (2, k) product per layer, the activation per endpoint
    with the scalar kernels (tanh with _scalar_tanh, moved out by 2^-50);
    one (lo, hi) pair per output."""
    v = np.array(ins).T
    for at, rmax, bmax, c, c_eta, tail, act in layers:
        if tail is None:
            e, ok = iv._error_bound(rmax * float(np.abs(v).max()) + bmax, c,
                                    c_eta)
            tail = np.array(((1.0, -e), (1.0, e))) if ok else None
        if tail is None:
            z = np.array([[-math.inf], [math.inf]]).repeat(at.shape[1], 1)
        else:
            z = np.concatenate((v, v[::-1], tail), axis=1) @ at
        if act == "tanh":
            v = np.array([[_scalar_tanh(a) for a in row]
                          for row in z.tolist()])
            v += np.array([[-2.0 ** -50], [2.0 ** -50]])
            v = np.minimum(np.maximum(v, -1.0), 1.0)
        elif act == "sigmoid":
            v = np.array(([_isigmoid((a, a))[0] for a in z[0]],
                          [_isigmoid((a, a))[1] for a in z[1]]))
            v = np.minimum(np.maximum(v, 0.0), 1.0)
        else:
            v = z
    return list(zip(*v.tolist()))


def _scalar_slots(tape, pairs):
    """Every slot's enclosure on one box of (lo, hi) pairs, slot by slot
    with the scalar kernels."""
    vals = []
    for op, val, idx, kids in tape.nodes:
        args = [vals[k] for k in kids]
        if op == "const":
            vals.append((val[0], val[0]))
        elif op == "var":
            vals.append(pairs[idx])
        elif op == "pow":
            vals.append(_ipow(args[0], val))
        elif op == "net":
            vals.append(_scalar_net(iv._net_layers(val), args))
        elif op == "row":
            vals.append(args[0][val])
        else:
            vals.append(_KERNELS[op](*args))
    return vals
