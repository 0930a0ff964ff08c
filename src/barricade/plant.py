"""Closed-loop vector-field construction and the Dubins path-following
error dynamics.

The state is (d_err, theta_e): signed lateral offset from the target line
and heading error.  A plant is a function from its input expressions to
its state components; the closed loop is that function applied to one
`symexpr.net` node per controller output, built with the smart
constructors, so the checker, the simulator and the oracle evaluate the
same expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from . import symexpr as sx


class ArityError(ValueError):
    """Plant / controller / output-map arities do not chain."""


@dataclass(frozen=True)
class VectorField:
    arity: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if any(sx.arity(c) > self.arity for c in self.components):
            raise ArityError("component uses var >= field arity")

    def eval_at(self, x):
        return [sx.eval_expr(c, x) for c in self.components]

    @cached_property
    def batched(self):
        """f as a callable (X, out=None) -> out: f at the columns of the
        (n, B) array X (or n length-B arrays) written into out (made when
        None) by one symexpr.array_program, built on first use, whose
        bind(B)(X, out) pins the simulator's steps.  It may round
        differently from eval_at in the last bits."""
        return sx.array_program(self.components, rows=True)


@dataclass(frozen=True)
class DubinsParams:
    speed: float = 1.0
    path_angle: float = math.pi / 4

    def __post_init__(self):
        if not self.speed > 0:
            raise ValueError("speed must be positive")


def dubins_error_field(p, u):
    """Dubins path-following error dynamics of (d_err, theta_e) driven by
    the input expressions u (one, the steering rate).

    Components are built in the unsimplified trigonometric form
    [-V sin(P - theta_e) cos(P) + V cos(P - theta_e) sin(P), -u[0]]
    so the checked expression is the derived one, not a rewrite.  The
    first component is numerically identical to V sin(theta_e).
    """
    v = sx.const(p.speed)
    pa = sx.const(p.path_angle)
    theta_e = sx.var(1)
    d_dot = sx.add(
        sx.mul(sx.neg(v), sx.mul(sx.sin(sx.sub(pa, theta_e)), sx.cos(pa))),
        sx.mul(v, sx.mul(sx.cos(sx.sub(pa, theta_e)), sx.sin(pa))))
    return [d_dot, sx.neg(u[0])]


def close_loop(plant_f, output_g, controller, gain=1.0):
    """The closed loop of plant_f driven by u = gain * h(g(x)), built with
    the smart constructors (mul folds a gain of 1), u_k being one `net`
    node per controller output.

    plant_f: a function from the m input expressions to the n state
    components, over vars x_0..x_{n-1}; output_g: n -> q expressions;
    controller: Network with q inputs and m outputs.  Returns a
    VectorField of arity n, which raises ArityError if a component uses
    a var >= n, through the plant or through the output map.
    """
    if controller.input_dim != len(output_g):
        raise ArityError("controller expects %d inputs, output map gives %d"
                         % (controller.input_dim, len(output_g)))
    comps = plant_f([sx.mul(sx.const(gain), sx.net(controller, k, output_g))
                     for k in range(controller.output_dim)])
    return VectorField(len(comps), comps)


def dubins_closed_loop(params, controller, gain=1.0):
    """Closed loop for the case study: 2 states, identity output, 1 input."""
    return close_loop(partial(dubins_error_field, params),
                      [sx.var(0), sx.var(1)], controller, gain=gain)
