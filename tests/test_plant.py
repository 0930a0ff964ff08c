"""Dubins error dynamics and closed-loop composition."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from barricade import cli
from barricade import network as nn
from barricade import plant
from barricade import symexpr as sx
from barricade import train


class TestDubinsErrorField:
    def test_zero_heading_error(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = plant.DubinsParams(speed=float(rng.uniform(0.1, 2.0)),
                                   path_angle=float(rng.uniform(-3, 3)))
            f = plant.dubins_error_field(p, [sx.var(2)])
            v = sx.eval_expr(f[0], [0.3, 0.0, 0.5])
            assert abs(v) < 1e-15

    def test_verbatim_equals_simplified(self):
        # the d_err component must equal V sin(theta_e) for any path angle
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            v_speed = float(rng.uniform(1e-9, 2.0))
            p_ang = float(rng.uniform(-math.pi, math.pi))
            th_e = float(rng.uniform(-math.pi, math.pi))
            f = plant.dubins_error_field(plant.DubinsParams(v_speed, p_ang),
                                         [sx.var(2)])
            got = sx.eval_expr(f[0], [0.0, th_e, 0.0])
            assert abs(got - v_speed * math.sin(th_e)) < 1e-12

    def test_theta_dot_is_minus_u(self):
        f = plant.dubins_error_field(plant.DubinsParams(), [sx.var(2)])
        assert sx.eval_expr(f[1], [0.4, -0.2, 0.7]) == -0.7


def _d_err(x, y, path_angle):
    """d_err of the point (x, y), as the trainer computes it
    (train._path_errors_batch), against one straight segment through the
    origin at path_angle, from -10 to 10 along it: a point within 5 of
    the origin in each coordinate projects inside it."""
    u = 10.0 * np.array([math.sin(path_angle), math.cos(path_angle)])
    d_err, _ = train._path_errors_batch(
        np.array([x]), np.array([y]), np.zeros(1),
        train._path_segments([-u, u]))
    return float(d_err[0])


class TestDistanceError:
    def test_point_above_x_axis(self):
        assert abs(_d_err(0.0, 1.0, math.pi / 2) - 1.0) < 1e-15

    def test_on_path(self):
        assert abs(_d_err(1.0, 0.0, math.pi / 2)) < 1e-15

    def test_projection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            x, y = rng.uniform(-5, 5, size=2)
            p_ang = float(rng.uniform(-math.pi, math.pi))
            d = _d_err(x, y, p_ang)
            # distance from (x, y) to the line through the origin with
            # direction (sin P, cos P)
            u = np.array([math.sin(p_ang), math.cos(p_ang)])
            pt = np.array([x, y])
            dist = np.linalg.norm(pt - (pt @ u) * u)
            assert abs(abs(d) - dist) < 1e-12


class TestCloseLoop:
    def _zero_net(self):
        return nn.Network((nn.make_layer([[0.0]], [0.0], "tanh"),))

    def test_zero_controller(self):
        # xdot = u, state arity 1
        field = plant.close_loop(lambda u: u, [sx.var(0)], self._zero_net())
        assert field.components[0] == sx.const(0.0)

    def test_one_neuron_structure(self):
        net = nn.Network((nn.make_layer([[1.0]], [0.0], "tanh"),
                          nn.make_layer([[1.0]], [0.0], "tanh")))
        field = plant.close_loop(lambda u: u, [sx.var(0)], net)
        assert sx.to_sexpr(field.components[0]) == (
            "(net %s 0 (var 0))" % nn.controller_hash(net))
        assert field.eval_at([0.5]) == [math.tanh(math.tanh(0.5))]

    def test_extensional_equality(self):
        rng = np.random.default_rng(8)
        w2 = rng.uniform(-1, 1, size=(10, 2))
        b2 = rng.uniform(-0.3, 0.3, size=10)
        w3 = rng.uniform(-1, 1, size=(1, 10))
        net = nn.Network((nn.make_layer(w2, b2, "tanh"),
                          nn.make_layer(w3, [0.1], "tanh")))
        params = plant.DubinsParams()
        field = plant.dubins_closed_loop(params, net)
        open_f = plant.dubins_error_field(params, [sx.var(2)])
        for _ in range(200):
            x = rng.uniform(-1, 1, size=2)
            u = nn.forward(net, x)[0]
            ref = [sx.eval_expr(c, [x[0], x[1], u]) for c in open_f]
            got = field.eval_at(x)
            assert got == ref  # same primitive sequence, bit-exact

    def test_arity_mismatch(self):
        net = nn.Network((nn.make_layer([[1.0, 0.0]], [0.0], "tanh"),))
        with pytest.raises(plant.ArityError):
            plant.close_loop(lambda u: u, [sx.var(0)], net)

    def test_plant_arity_mismatch(self):
        # a component over a var >= n: VectorField's own check
        net = nn.Network((nn.make_layer([[1.0]], [0.0], "tanh"),))
        with pytest.raises(plant.ArityError):
            plant.close_loop(lambda u: [sx.add(u[0], sx.var(1))],
                             [sx.var(0)], net)
        with pytest.raises(plant.ArityError):
            plant.close_loop(lambda u: u, [sx.var(1)], net)

    def test_gain_scales_input_channel(self):
        net = nn.Network((nn.make_layer([[1.0]], [0.0], "tanh"),))
        field = plant.close_loop(lambda u: u, [sx.var(0)], net, gain=2.0)
        assert field.eval_at([0.5])[0] == 2.0 * math.tanh(0.5)


def _lag_loop(net):
    """The Dubins loop with a first-order steering lag w' = 5 (u - w) as
    its third state, the controller fed (d, theta)."""
    d_dot = plant.dubins_error_field(plant.DubinsParams(), [sx.var(2)])[0]
    w = sx.var(2)
    return plant.close_loop(
        lambda u: [d_dot, sx.neg(w), sx.mul(sx.const(5.0), sx.sub(u[0], w))],
        [sx.var(0), sx.var(1)], net)


def test_closed_loop_text_is_pinned():
    # every component's text, recorded when the loop was built by
    # substituting net nodes for input variables in the open plant
    recorded = json.loads((Path(__file__).parent / "data"
                           / "closed_loop_text.json").read_text())
    nn10, nn100 = (nn.load(cli.bundled_controller_path(n)) for n in (10, 100))
    loops = {
        "nn10_gain0.9_speed2": plant.dubins_closed_loop(
            plant.DubinsParams(speed=2.0), nn10, gain=0.9),
        "nn100_gain1.1": plant.dubins_closed_loop(
            plant.DubinsParams(), nn100, gain=1.1),
        "lag3": _lag_loop(nn10),
    }
    assert list(loops) == list(recorded)
    for name, field in loops.items():
        assert [sx.to_sexpr(c) for c in field.components] == recorded[name]
