"""Closed-loop vector-field construction and the Dubins path-following
error dynamics.

State for the verified system is (d_err, theta_e): signed lateral offset
from the target line and heading error.  The closed loop composes the
plant field with the network controller symbolically for the checker; the
simulator evaluates the same composition numerically, one network layer
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import symexpr as sx
from . import network as nn


class ArityError(ValueError):
    """Plant / controller / output-map arities do not chain."""


@dataclass(frozen=True)
class VectorField:
    arity: int
    components: tuple
    # (plant_f, output_g, controller, gain) for a field built by
    # close_loop: the batched evaluator then runs the controller layer by
    # layer instead of through the unrolled components.
    loop: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if sx.arity(c) > self.arity:
                raise ArityError("component uses var >= field arity")

    def eval_at(self, x):
        return [sx.eval_expr(c, x) for c in self.components]

    @cached_property
    def batched(self):
        """f over the columns of X, as a callable X (n, B) -> F (n, B),
        built on first use.  The components run as compile_expr array
        programs; a closed loop runs its controller layer by layer
        instead.  It may round differently from eval_at in the last bits
        (numpy's elementary functions, the order of the sums in the
        controller's matrix products)."""
        if self.loop is None:
            fns = [sx.compile_expr(c) for c in self.components]
            return lambda x: _rows(fns, x)
        plant_f, output_g, controller, gain = self.loop
        f_fns = [sx.compile_expr(c) for c in plant_f]
        g_fns = (None if output_g == tuple(identity_output(self.arity))
                 else [sx.compile_expr(g) for g in output_g])
        arrays = cache(lambda batch: nn.batch_arrays(controller, batch))

        def f(x):
            y = x if g_fns is None else _rows(g_fns, x)
            u = nn.forward_fast(arrays(x.shape[1]), y)
            if gain != 1.0:
                u *= gain
            return _rows(f_fns, np.concatenate((x, u)))
        return f


def _rows(fns, p):
    """fn(p) for each fn, as the rows of a (len(fns), B) array, where p is
    (k, B); constant components broadcast."""
    out = np.empty((len(fns), p.shape[1]))
    for i, fn in enumerate(fns):
        out[i] = fn(p)
    return out


@dataclass(frozen=True)
class DubinsParams:
    speed: float = 1.0
    path_angle: float = math.pi / 4

    def __post_init__(self):
        if not self.speed > 0:
            raise ValueError("speed must be positive")


def dubins_error_field(p):
    """Dubins path-following error dynamics in (d_err, theta_e, u).

    Components are built in the unsimplified trigonometric form
    [-V sin(P - theta_e) cos(P) + V cos(P - theta_e) sin(P), -u]
    so the checked expression is the derived one, not a rewrite.  The
    first component is numerically identical to V sin(theta_e).
    """
    v = sx.const(p.speed)
    pa = sx.const(p.path_angle)
    theta_e = sx.var(1)
    u = sx.var(2)
    d_dot = sx.add(
        sx.mul(sx.neg(v), sx.mul(sx.sin(sx.sub(pa, theta_e)), sx.cos(pa))),
        sx.mul(v, sx.mul(sx.cos(sx.sub(pa, theta_e)), sx.sin(pa))))
    return [d_dot, sx.neg(u)]


def distance_error(x, y, path_angle):
    """Signed distance to the line through the origin at path_angle.

    Angles follow the clockwise-from-+y convention of the vehicle model;
    positive on the left of the path, negative on the right.
    """
    return (-x * math.sin(math.pi / 2 - path_angle)
            + y * math.cos(math.pi / 2 - path_angle))


def identity_output(n):
    return [sx.var(i) for i in range(n)]


def close_loop(plant_f, output_g, controller, gain=1.0):
    """Substitute u = gain * h(g(x)) into the plant field.

    plant_f: expressions over vars (x_0..x_{n-1}, u_0..u_{m-1});
    output_g: n -> q expressions; controller: Network with q inputs and
    m outputs.  Returns a VectorField of arity n.
    """
    n = len(plant_f)
    q = len(output_g)
    m = controller.output_dim
    if controller.input_dim != q:
        raise ArityError("controller expects %d inputs, output map gives %d"
                         % (controller.input_dim, q))
    for g in output_g:
        if sx.arity(g) > n:
            raise ArityError("output map uses var >= state arity")
    for fc in plant_f:
        if sx.arity(fc) > n + m:
            raise ArityError("plant component uses var >= n + m")
    u_exprs = nn.to_expr(controller, inputs=list(output_g))
    if gain != 1.0:
        u_exprs = [sx.mul(sx.const(gain), u) for u in u_exprs]
    mapping = {n + k: u_exprs[k] for k in range(m)}
    comps = [sx.substitute(fc, mapping) for fc in plant_f]
    return VectorField(n, tuple(comps),
                       (tuple(plant_f), tuple(output_g), controller, gain))


def dubins_closed_loop(params, controller, gain=1.0):
    """Closed loop for the case study: 2 states, identity output, 1 input."""
    return close_loop(dubins_error_field(params), identity_output(2),
                      controller, gain=gain)
