"""Arithmetic on intervals for the checker: the Box type of the API, one
read-only (n, 2) array of interval ends; the outward-rounded interval
kernels over B boxes at once, which the tape of symexpr runs; and a
network's layer-wise interval pass over B boxes (`_inet`), which it runs
for a net node.  An op's kernel rounds each endpoint to nearest and then
moves it outward by whole ulps (np.nextafter), so containment holds
without touching FPU modes; `_inet` bounds its rounding error instead.
Each box's enclosure has the same bits in any batch.  The tests hold the
kernels, bit for bit, to a scalar reference over (lo, hi) float pairs:
tests/scalar_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network as nn

_INF = math.inf

# Beyond this argument bound the sin/cos kernels give the whole line
# (argument reduction accuracy degrades; the case study stays in [-pi, pi]).
TRIG_ARG_LIMIT = 1.0e6


def _mid(lo, hi):
    """Midpoint of [lo, hi], also where lo + hi overflows; lo and hi are
    floats or arrays, and the result an array."""
    mid = 0.5 * (lo + hi)
    return np.where((lo <= mid) & (mid <= hi), mid, 0.5 * lo + 0.5 * hi)


@dataclass(frozen=True, eq=False)
class Box:
    """A box of R^n: bounds, a read-only (n, 2) float array, row i being
    (lo, hi) of dimension i.  Each row holds a real number: lo <= hi, no
    NaN end, and neither [inf, inf] nor [-inf, -inf]."""

    bounds: np.ndarray

    def __post_init__(self):
        b = self.bounds
        b = np.array(b if len(b) else np.empty((0, 2)), float)
        if b.shape != (len(b), 2):
            raise ValueError("not (lo, hi) pairs: %r" % (self.bounds,))
        for lo, hi in b.tolist():
            if not (lo <= hi and lo < _INF and hi > -_INF):
                raise ValueError("empty interval: [%r, %r]" % (lo, hi))
        b.flags.writeable = False
        object.__setattr__(self, "bounds", b)

    def __eq__(self, other):
        """Equal ends, -0.0 and 0.0 alike."""
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.bounds, other.bounds)

    def __hash__(self):
        return hash(tuple(self.bounds.ravel().tolist()))

    @property
    def arity(self):
        return len(self.bounds)

    def midpoint(self):
        return [float(_mid(lo, hi)) for lo, hi in self.bounds.tolist()]

    def contains(self, x):
        """Whether the point x (length n) lies in the box, lo <= x <= hi in
        every dimension; for an (m, n) array x, an (m,) mask of its rows."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.arity,):
            raise ValueError("points of shape %s in a box of arity %d"
                             % (x.shape, self.arity))
        inside = np.ones(x.shape[:-1], bool)
        for i, (lo, hi) in enumerate(self.bounds.tolist()):
            inside &= (lo <= x[..., i]) & (x[..., i] <= hi)
        return inside if x.ndim > 1 else bool(inside)


def box(*bounds):
    """box((lo, hi), (lo, hi), ...) convenience constructor."""
    return Box(bounds)


# ---------------------------------------------------------------------------
# Batched kernels: the checker evaluates B boxes at once
# ---------------------------------------------------------------------------
#
# An interval slot of B boxes is a (2, B) array, row 0 the lower and row 1
# the upper endpoints; a constant is (2, 1) and broadcasts.  Each kernel
# computes every column with the same elementwise IEEE operations, so a
# box gets the same enclosure bit for bit whatever its batch.  The
# rounding rules: neg is exact; add, sub, mul and div round to nearest and
# move each end out by one ulp; exp, tanh, sin and cos by two and pow by
# three, and an end beyond the function's range is clipped to it.  A min
# or max that no nextafter follows keeps Python's rule for ties and NaN
# (max(a, b) is b only when b > a), which fixes the sign of a zero end.
# Every kernel is total: a divisor holding zero, a quotient inf/inf, or a
# sin or cos argument beyond TRIG_ARG_LIMIT or with a NaN end gives the
# whole line.  A tape op's kernel writes into out (a slot, see symexpr)
# when given it.  exp, tanh, sin, cos and pow nodes go through math.* (or
# **) per element, trusted to 2 ulps; numpy's SIMD versions have no
# documented error bound.  A network's tanh layers go through _ntanh
# instead, a table and a series in numpy's correctly rounded + - * /,
# whose bound _inet proves.  The kernels expect floating-point warnings to
# be off (np.errstate), which the callers set once per pass.


def _pow(x, n):
    """x ** n, infinite where the float result overflows."""
    try:
        return x ** n
    except OverflowError:
        return -_INF if x < 0.0 and n % 2 else _INF


def _exp(x):
    """math.exp(x), infinite where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


_TWO_PI = 2.0 * math.pi

_OUT = np.array([[-_INF], [_INF]])      # outward, per row; the whole line
_UNIT = np.array([[-1.0], [1.0]])
_ONES = np.array([[1.0], [1.0]])


def _emap(fn, a, out=None):
    """fn of every element of the array a, as Python floats, in out or a
    new array."""
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape) if out is None else out
    out[...] = np.fromiter(map(fn, memoryview(a.reshape(-1))), float,
                           a.size).reshape(a.shape)
    return out


def _vwiden(v, n=1):
    """v, a new array, moved outward in place by n ulps per endpoint."""
    for _ in range(n):
        np.nextafter(v, _OUT, out=v)
    return v


def _vclip(v, lo, hi):
    """v, set in place to (max(v[0], lo), min(v[1], hi)) by Python's rule:
    the meet of v and [lo, hi]."""
    np.copyto(v[0], lo, where=lo > v[0])
    np.copyto(v[1], hi, where=hi < v[1])
    return v


def _vhull(p, out=None):
    """The least and greatest of the rows of p, in out or a new (2, B)
    array.  Ties of signed zeros may go either way: callers widen it."""
    v = np.empty((2, p.shape[1])) if out is None else out
    np.minimum.reduce(p, axis=0, out=v[0])
    np.maximum.reduce(p, axis=0, out=v[1])
    return v


def _vadd(a, b, out=None):
    return np.nextafter(np.add(a, b, out=out), _OUT, out=out)


def _vsub(a, b, out=None):
    return np.nextafter(np.subtract(a, b[::-1], out=out), _OUT, out=out)


def _vneg(a, out=None):
    return np.negative(a[::-1], out=out)


def _vmul(a, b, out=None):
    p = (a[:, None] * b[None]).reshape(4, -1)
    # A NaN product is 0 * inf.  It counts as 0: an interval holds real
    # numbers only, and 0 times any of them is 0.
    np.copyto(p, 0.0, where=p != p)
    return _vwiden(_vhull(p, out))


def _vdiv(a, b, out=None):
    p = (a[:, None] / b[None]).reshape(4, -1)
    s = p[0] + p[1] + p[2] + p[3]
    whole = (b[0] <= 0.0) & (0.0 <= b[1]) | (s != s)
    v = _vwiden(_vhull(p, out))
    np.copyto(v, _OUT, where=whole)
    return v


def _vmulc(a, c, out=None):
    """_vmul(a, [c, c]) for a finite, nonzero c and a[0] <= a[1]: its four
    products are these two, twice, and nextafter maps -0.0 and 0.0 alike."""
    p = np.multiply(a if c > 0.0 else a[::-1], c, out=out)
    return np.nextafter(p, _OUT, out=p)


def _vpow(a, n, out=None):
    v = _vhull(_emap(partial(_pow, n=n), a), out)
    if n % 2:
        return _vwiden(v, 3)
    np.copyto(v[0], 0.0, where=(a[0] < 0.0) & (0.0 < a[1]))
    return _vclip(_vwiden(v, 3), 0.0, _INF)


def _vexp(a, out=None):
    return _vclip(_vwiden(_emap(_exp, a, out), 2), 0.0, _INF)


def _vtanh(a, out=None):
    return _vclip(_vwiden(_emap(math.tanh, a, out), 2), -1.0, 1.0)


# sin and cos, each with where it bottoms out and peaks, + 2*pi*k
_TRIG = {"sin": (math.sin, (-math.pi / 2, math.pi / 2)),
         "cos": (math.cos, (math.pi, 0.0))}


def _vsincos(v, ops):
    """sin and cos (those of ops, in order) of one argument over B boxes,
    in the tape's slot layout: v (1, 2, B), the result (len(ops), 2, B).
    One limit, extremum and width test serves both: a row is -1 or 1
    where the argument grown by a relative 1e-9 holds a bottom or a top."""
    (a,) = v
    fns, crit = zip(*map(_TRIG.get, ops))
    bad = ~(np.abs(a) <= TRIG_ARG_LIMIT).all(axis=0)    # NaN included
    safe = np.where(bad, 0.0, a)
    out = np.empty((len(ops), 2, a.shape[1]))
    for fn, o in zip(fns, out):
        _vhull(_emap(fn, safe), o)
    ends = a + _UNIT * (1e-9 * (1.0 + np.maximum.reduce(np.abs(a))))
    k = (ends[:, None, None] - np.array(crit)[:, :, None]) / _TWO_PI
    np.copyto(out, _UNIT, where=np.ceil(k[0]) <= np.floor(k[1]))
    _vclip(_vwiden(out, 2).transpose(1, 0, 2), -1.0, 1.0)
    np.copyto(out, _UNIT, where=a[1] - a[0] >= _TWO_PI)
    np.copyto(out, _OUT, where=bad)
    return out


def _vsigmoid(a):
    return _vdiv(_ONES, _vadd(_ONES, _vexp(_vneg(a))))


_VKERNELS = {
    "add": _vadd, "sub": _vsub, "mul": _vmul, "div": _vdiv, "neg": _vneg,
    "exp": _vexp, "tanh": _vtanh,
}


# ---------------------------------------------------------------------------
# Network layers over intervals
# ---------------------------------------------------------------------------

_U = 2.0 ** -53         # unit roundoff of binary64
_ETA = 2.0 ** -1074     # smallest subnormal
_HUGE = 2.0 ** 1000     # bound on a layer's sums below which none overflows
_TANH_SLACK = np.array([[-2.0 ** -50], [2.0 ** -50]])

# _ntanh's table: tanh(k h) for h = 2^-7 and k h in [0, 20], by math.tanh
_TANH_N = 128.0         # 1 / h
_TANH_H = 2.0 ** -7     # h
_TANH_END = 20.0        # tanh x is within 2^-57 of tanh 20 beyond it
_TANH_TABLE = np.array([math.tanh(k / _TANH_N)
                        for k in range(int(_TANH_END * _TANH_N) + 1)])
_TANH_C3, _TANH_C5, _TANH_C7 = -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0


def _ntanh(z):
    """tanh of every element of z, a new array, within 2^-50 (see _inet):
    x = |z|, taken as 20 beyond 20, is g + r with g = k h the nearest
    table point and r exact (Sterbenz, or g = 0); tanh r is its odd series
    to r^7, the addition formula gives tanh x, and copysign the sign.  NaN
    stays NaN, and neither it nor a huge x reaches the index cast.  Each
    operation is elementwise and correctly rounded, so an element's
    result does not depend on the array."""
    x = np.abs(z)
    k = np.fmin(x, _TANH_END)
    k *= _TANH_N
    np.rint(k, out=k)
    t = _TANH_TABLE.take(k.astype(np.intp))
    r = np.minimum(x, _TANH_END, out=x)
    k *= _TANH_H            # k h, exactly k / 128
    r -= k
    r2 = np.multiply(r, r, out=k)
    tau = r2 * _TANH_C7     # r * (r2 * (C3 + r2 * (C5 + r2 * C7))) + r
    for c in (_TANH_C5, _TANH_C3):
        tau += c
        tau *= r2
    tau *= r
    tau += r
    y = np.add(t, tau, out=r2)
    tau *= t
    tau += 1.0
    y /= tau
    return np.copysign(y, z, out=y)


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
    """The interval forward pass of a network (layers from _net_layers)
    over B boxes: v is (n, 2, B), a tape's slots, input i of box b being
    [v[i, 0, b], v[i, 1, b]].  Returns the (m, 2, B) enclosures of the m
    outputs in the same layout.

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
    tanh goes through _ntanh, one elementwise kernel for every batch
    (numpy's SIMD tanh has no documented error bound).  tanh is odd and
    copysign exact, so take x = |z|.  For x >= 20 the kernel returns the
    table's last entry T exactly (r = 0), within 2 ulps of tanh 20, at
    most 2^-52, and tanh 20 is within 2e^-40 < 2^-57 of tanh x.  Below
    20, x = g + r with g on the table's grid, r exact and |r| <= h/2 =
    2^-8:
    - the table entry T is within 2 ulps of tanh g, at most 2^-52, as
      math.tanh is trusted in _vtanh;
    - tau, the series of tanh r to r^7, is within 2^-60 of tanh r: the
      remainder is below 2^-77, the correction r*s (|s| < 2^-17) is below
      2^-25 and rounds a few times, and r + r*s rounds by u|tau| <= 2^-61;
    - R = (T + tau) / (1 + T tau) lies in [-1, 1], and its partial
      derivatives (1 - tau^2) / (1 + T tau)^2 and (1 - T^2) / (1 + T
      tau)^2 are at most 1 / (1 - 2^-8)^2 < 1.008, so R is within
      1.008 (2^-52 + 2^-60) of tanh x;
    - the four roundings of R (a sum, a product below 2^-8 added to 1, and
      the quotient) lose a relative 3.01u at most, 1.505 * 2^-52 of |R|
      <= 1.
    The kernel is thus within 2.52 * 2^-52 < 0.63 * 2^-50 of tanh x.  The
    rows move out by 2^-50, of which the rounding of the move (half an ulp
    of a value below 2) keeps at least 0.875 * 2^-50, and are clipped to
    [-1, 1].  sigmoid goes through _vsigmoid, the kernels of its unrolled
    form on each output's rows (lo, hi), clipped to [0, 1]: its lower end
    is that of [lo, lo], and its upper end that of [hi, hi], bit for bit.
    """
    v = v.transpose(2, 1, 0)
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
            v = _ntanh(z)
            v += _TANH_SLACK
            np.minimum(np.maximum(v, -1.0, out=v), 1.0, out=v)
        elif act == "sigmoid":
            v = _vsigmoid(z.transpose(1, 0, 2).reshape(2, -1))
            v = v.reshape(2, *z.shape[::2]).transpose(1, 0, 2)
            np.minimum(np.maximum(v, 0.0, out=v), 1.0, out=v)
        else:
            v = z
    return v.transpose(2, 1, 0)
