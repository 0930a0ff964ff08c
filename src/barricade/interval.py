"""Interval arithmetic for the checker: the Interval and Box types of the
API, scalar kernels over (lo, hi) float pairs, their batched forms over B
boxes at once, which the tape of symexpr runs, and a network's layer-wise
interval pass over B boxes (`_inet`), which it runs for a net node.  The
scalar kernels are the reference that the batched ones equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network as nn

_INF = math.inf

# Argument bound beyond which sin/cos interval evaluation refuses to work
# (argument reduction accuracy degrades; the case study stays in [-pi, pi]).
TRIG_ARG_LIMIT = 1.0e6


class EvalError(ArithmeticError):
    """Division by zero, NaN propagation or domain violation during eval."""


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


def _exp(x):
    """math.exp(x), infinite where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _iexp(a):
    lo, hi = _widen(_exp(a[0]), _exp(a[1]), 2)
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


_ONE = (1.0, 1.0)


def _isigmoid(a):
    """1 / (1 + exp(-a)), composed of the kernels of the unrolled form."""
    return _idiv(_ONE, _iadd(_ONE, _iexp(_ineg(a))))


_KERNELS = {
    "add": _iadd, "sub": _isub, "mul": _imul, "div": _idiv, "neg": _ineg,
    "sin": _isin, "cos": _icos, "exp": _iexp, "tanh": _itanh,
}


# ---------------------------------------------------------------------------
# Batched kernels: the checker evaluates B boxes at once
# ---------------------------------------------------------------------------
#
# An interval slot of B boxes is a (2, B) array, row 0 the lower and row 1
# the upper endpoints; a constant is (2, 1) and broadcasts.  Each kernel
# applies the IEEE operations of the scalar kernel above to every column,
# and np.nextafter where that calls math.nextafter, so every box gets the
# scalar enclosure bit for bit whatever its batch.  A min or max that no
# nextafter follows keeps Python's rule for ties and NaN (max(a, b) is b
# only when b > a), so signed zeros come out as the scalar kernels give
# them.  exp, tanh, sin, cos and pow go through math.* (or **) per
# element, trusted to 2 ulps as in the scalar kernels; numpy's SIMD
# versions have no documented error bound.  The kernels expect
# floating-point warnings to be off (np.errstate), which the callers set
# once per pass.

_OUT = np.array([[-_INF], [_INF]])      # outward, per row; the whole line
_UNIT = np.array([[-1.0], [1.0]])
_ONES = np.array([[1.0], [1.0]])


def _emap(fn, a):
    """fn of every element of the array a, as Python floats, in a new
    array."""
    a = np.ascontiguousarray(a)
    return np.fromiter(map(fn, memoryview(a.reshape(-1))), float,
                       a.size).reshape(a.shape)


def _vwiden(v, n=1):
    """v, a new array, moved outward in place by n ulps per endpoint, as
    _widen."""
    for _ in range(n):
        np.nextafter(v, _OUT, out=v)
    return v


def _vclip(v, lo, hi):
    """v, a new array, set in place to (max(v[0], lo), min(v[1], hi)) by
    Python's rule."""
    np.copyto(v[0], lo, where=lo > v[0])
    np.copyto(v[1], hi, where=hi < v[1])
    return v


def _vhull(p):
    """The least and greatest of the rows of p, a new (2, B) array.  Ties
    between signed zeros may go either way: callers widen the result."""
    v = np.empty((2, p.shape[1]))
    np.minimum.reduce(p, axis=0, out=v[0])
    np.maximum.reduce(p, axis=0, out=v[1])
    return v


def _vadd(a, b):
    return np.nextafter(a + b, _OUT)


def _vsub(a, b):
    return np.nextafter(a - b[::-1], _OUT)


def _vneg(a):
    return -a[::-1]


def _vmul(a, b):
    p = (a[:, None] * b[None]).reshape(4, -1)
    # _imul zeroes the NaN products (0 * inf) when their sum is NaN,
    # which it is whenever one of them is.
    np.copyto(p, 0.0, where=p != p)
    return _vwiden(_vhull(p))


def _vdiv(a, b):
    p = (a[:, None] / b[None]).reshape(4, -1)
    s = p[0] + p[1] + p[2] + p[3]
    whole = (b[0] <= 0.0) & (0.0 <= b[1]) | (s != s)
    return np.where(whole, _OUT, _vwiden(_vhull(p)))


def _vpow(a, n):
    v = _vhull(_emap(partial(_pow, n=n), a))
    if n % 2:
        return _vwiden(v, 3)
    np.copyto(v[0], 0.0, where=(a[0] < 0.0) & (0.0 < a[1]))
    return _vclip(_vwiden(v, 3), 0.0, _INF)


def _vexp(a):
    return _vclip(_vwiden(_emap(_exp, a), 2), 0.0, _INF)


def _vtanh(a):
    return _vclip(_vwiden(_emap(math.tanh, a), 2), -1.0, 1.0)


def _trig_bad(a):
    """The columns of a that _itrig refuses: beyond TRIG_ARG_LIMIT."""
    return np.maximum.reduce(np.abs(a), axis=0) > TRIG_ARG_LIMIT


def _vtrig(a, fn, crit):
    """_itrig per column, crit being [[bottom], [top]]; the whole line
    where _trig_bad."""
    bad = _trig_bad(a)
    v = _vhull(_emap(fn, np.where(bad, 0.0, a)))
    # _trig_has_crit for bottom (row 0) and top (row 1) at once
    ends = a + _UNIT * (1e-9 * (1.0 + np.maximum.reduce(np.abs(a))))
    k = (ends[:, None] - crit) / _TWO_PI
    v = np.where(np.ceil(k[0]) <= np.floor(k[1]), _UNIT, v)
    v = _vclip(_vwiden(v, 2), -1.0, 1.0)
    return np.where(bad, _OUT, np.where(a[1] - a[0] >= _TWO_PI, _UNIT, v))


_vsin = partial(_vtrig, fn=math.sin,
                crit=np.array([[-math.pi / 2], [math.pi / 2]]))
_vcos = partial(_vtrig, fn=math.cos, crit=np.array([[math.pi], [0.0]]))


def _vsigmoid(a):
    return _vdiv(_ONES, _vadd(_ONES, _vexp(_vneg(a))))


_VKERNELS = {
    "add": _vadd, "sub": _vsub, "mul": _vmul, "div": _vdiv, "neg": _vneg,
    "sin": _vsin, "cos": _vcos, "exp": _vexp, "tanh": _vtanh,
}


# ---------------------------------------------------------------------------
# Network layers over intervals
# ---------------------------------------------------------------------------

_U = 2.0 ** -53         # unit roundoff of binary64
_ETA = 2.0 ** -1074     # smallest subnormal
_HUGE = 2.0 ** 1000     # bound on a layer's sums below which none overflows
_TANH_SLACK = np.array([[-2.0 ** -51], [2.0 ** -51]])


def _error_bound(s, c, c_eta):
    """(E, ok) for a bound s, a float or an array, on a layer's sums of
    |terms|: E = c*s + c_eta bounds the layer's rounding error (see
    _inet) where ok, that is where s <= 2^1000; elsewhere the layer's
    outputs are the whole line."""
    return c * s + c_eta, s <= _HUGE


def _net_layers(network):
    """network's layers as _inet reads them: per layer [W+ | W- | b | 1]
    transposed, the largest row sum of |W|, the largest |b|, the error
    factors 8mu and 8m*eta for m = 2n + 2 terms, the product's error tail
    when the inputs lie in [-1, 1] (after a tanh or sigmoid layer), and
    the activation."""
    out = []
    bounded = False
    for w, b, act in nn.numpy_arrays(network):
        m = 2 * w.shape[1] + 2
        at = np.vstack((np.maximum(w, 0.0).T, np.minimum(w, 0.0).T, b,
                        np.ones_like(b)))
        rmax = float(np.abs(w).sum(axis=1).max())
        bmax = float(np.abs(b).max())
        c, c_eta = 8 * m * _U, 8 * m * _ETA
        tail = None
        if bounded:
            e, ok = _error_bound(rmax + bmax, c, c_eta)
            if ok:      # the last two columns [1 -E; 1 E] of the product
                tail = np.array(((1.0, -e), (1.0, e)))
        out.append((at, rmax, bmax, c, c_eta, tail, act))
        bounded = act != "identity"
    return out


@np.errstate(all="ignore")
def _inet(layers, v):
    """Interval forward pass of a network (layers from _net_layers) over B
    boxes: v is (B, 2, n), box b's input intervals having the lower
    endpoints v[b, 0] and the upper ones v[b, 1].  Returns the (B, 2, m)
    enclosures of the m outputs in the same layout.

    For each box, each layer is one matrix product [lo hi 1 -E; hi lo 1 E]
    [W+ | W- | b | 1]^T of its input rows (lo, hi): row 0 sums
    W+ lo + W- hi + b - E, the exact lower bound of W x + b over the box
    less E, and row 1 the upper bound plus E.  Each entry is a
    floating-point sum of m = 2n + 2 products t_k.  In whatever order the
    product adds them, with rounding to nearest and gradual underflow, it
    is within gamma_m * sum|t_k| + m*eta of the exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1,
    eq. (3.4); gamma_m = mu / (1 - mu) <= 2mu, and each product adds at
    most eta/2 by underflow).  Let S = R*M + B, where R is the largest row
    sum of |W|, M the box's largest |endpoint| and B the largest |b|; then
    sum|t_k| <= S + E, and the rows are bounds as long as
    E >= gamma_m * (S + E) + m*eta, which holds for E >= 4mu*S + 2m*eta
    when 2mu <= 1/2.  E is computed per box (_error_bound) as fl(fl(8mu *
    fl(fl(R' * M) + B)) + 8m*eta), R' being the floating-point row sum:
    each of the at most n + 3 roundings of nonnegative numbers on the way
    loses a factor of at most 1 - u, or eta/2 to underflow, so
    E >= 4mu*S + 6m*eta.  A layer
    after a tanh or sigmoid takes M = 1, since those outputs are clipped
    to [-1, 1], so its E is fixed.  S <= 2^1000 keeps every partial sum
    finite; otherwise, and for a NaN or infinite endpoint (whose S is then
    not <= 2^1000), the box's outputs of the layer are the whole line, so
    no endpoint is NaN.

    The product is stacked, (B, 2, k) @ at: one product per box, of the
    shape it has when the box is evaluated alone.  A flat (2B, k) product
    may add in another order, which would make a box's enclosure depend
    on its batch.

    The activation is monotone, so it maps the rows endpoint by endpoint.
    tanh goes through math.tanh, trusted to 2 ulps as in _itanh (numpy's
    SIMD tanh has no such bound).  2 ulps of a value in (-1, 1) are at
    most 2^-52, so the rows move out by 2^-51, which survives the rounding
    of the move, and are clipped to [-1, 1].  sigmoid goes through
    _vsigmoid, the kernels of its unrolled form on each endpoint, clipped
    to [0, 1].
    """
    for at, rmax, bmax, c, c_eta, tail, act in layers:
        k = v.shape[2]
        x = np.empty((v.shape[0], 2, 2 * k + 2))
        x[:, :, :k] = v
        x[:, :, k:2 * k] = v[:, ::-1]
        if tail is None:    # the inputs are not known to lie in [-1, 1]
            e, ok = _error_bound(rmax * np.abs(v).max(axis=(1, 2)) + bmax,
                                 c, c_eta)
            x[:, :, 2 * k] = 1.0
            x[:, 0, -1] = -e
            x[:, 1, -1] = e
            z = x @ at
            z[~ok] = _OUT
        else:
            x[:, :, 2 * k:] = tail
            z = x @ at
        if act == "tanh":
            v = _emap(math.tanh, z) + _TANH_SLACK
            np.minimum(np.maximum(v, -1.0, out=v), 1.0, out=v)
        elif act == "sigmoid":
            flat = z.reshape(1, -1)
            y = _vsigmoid(np.concatenate((flat, flat)))
            v = y[1].reshape(z.shape)
            v[:, 0] = y[0].reshape(z.shape)[:, 0]
            np.minimum(np.maximum(v, 0.0, out=v), 1.0, out=v)
        else:
            v = z
    return v
