"""Closed-loop vector-field construction and the Dubins path-following
error dynamics.

The state is (d_err, theta_e): signed lateral offset from the target line
and heading error.  The closed loop substitutes one `symexpr.net` node per
controller output into the plant field, so the checker, the simulator and
the oracle evaluate the same expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import symexpr as sx


class ArityError(ValueError):
    """Plant / controller / output-map arities do not chain."""


@dataclass(frozen=True)
class VectorField:
    arity: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if sx.arity(c) > self.arity:
                raise ArityError("component uses var >= field arity")

    def eval_at(self, x):
        return [sx.eval_expr(c, x) for c in self.components]

    @cached_property
    def batched(self):
        """f as a callable (X, out=None) -> out: f at the columns of the
        (n, B) array X (or n length-B arrays) written into out (made when
        None) by one symexpr.array_program, built on first use, whose
        bind(B) the simulator runs.  It may round differently from eval_at
        in the last bits."""
        return sx.array_program(self.components, rows=True)


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


def identity_output(n):
    return [sx.var(i) for i in range(n)]


def close_loop(plant_f, output_g, controller, gain=1.0):
    """Substitute u = gain * h(g(x)) into the plant field, u_k being one
    `net` node per controller output.

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
    u_exprs = [sx.net(controller, k, output_g) for k in range(m)]
    if gain != 1.0:
        u_exprs = [sx.mul(sx.const(gain), u) for u in u_exprs]
    mapping = {n + k: u_exprs[k] for k in range(m)}
    comps = [sx.substitute(fc, mapping) for fc in plant_f]
    return VectorField(n, tuple(comps))


def dubins_closed_loop(params, controller, gain=1.0):
    """Closed loop for the case study: 2 states, identity output, 1 input."""
    return close_loop(dubins_error_field(params), identity_output(2),
                      controller, gain=gain)
