"""Policy search: rollout cost, CMA-ES, controller training."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from barricade import network as nn
from barricade import train


class TestRolloutCost:
    def test_on_path_zero_controller(self):
        # start on a straight path aligned with the heading: zero errors
        net_params = np.zeros(4 * 1 + 1)
        cfg = train.RolloutConfig(waypoints=((0.0, 0.0), (0.0, 30.0)),
                                  n_steps=100, dt=0.05,
                                  start_offsets=((0.0, 0.0),))
        cost = train.rollout_cost(net_params, 1, cfg)
        # only the endpoint term remains (path end is 30 ahead, rollout
        # covers 5, so compute it explicitly)
        expected = train.COST_END * (30.0 - 100 * 0.05) ** 2
        assert cost == pytest.approx(expected, rel=1e-9)

    def test_heading_offset_lower_bound(self):
        net_params = np.zeros(5)
        cfg = train.RolloutConfig(waypoints=((0.0, 0.0), (0.0, 30.0)),
                                  n_steps=100, dt=0.05,
                                  start_offsets=((0.0, 0.1),))
        cost = train.rollout_cost(net_params, 1, cfg)
        # theta_e stays at 0.1 with a zero controller
        assert cost >= 101 * train.COST_THETA * 0.1 ** 2

    def test_quadratic_coefficient_audit(self):
        # doubling the lateral offset roughly quadruples the d_err term for
        # a zero controller on a straight path (d_err stays near constant
        # while theta_e = 0)
        costs = []
        for lat in (0.2, 0.4):
            cfg = train.RolloutConfig(waypoints=((0.0, 0.0), (0.0, 30.0)),
                                      n_steps=50, dt=0.02,
                                      start_offsets=((lat, 0.0),))
            total = train.rollout_cost(np.zeros(5), 1, cfg)
            # remove the endpoint term, which does not scale with lat
            end_term = train.COST_END * (lat ** 2 + (30.0 - 50 * 0.02) ** 2)
            costs.append(total - end_term)
        assert costs[1] == pytest.approx(4.0 * costs[0], rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        cfg = train.RolloutConfig(n_steps=50)
        for _ in range(20):
            p = rng.standard_normal(41)
            assert train.rollout_cost(p, 10, cfg) >= 0.0


class TestParamsLayout:
    def test_dimension_law(self):
        for nh in (1, 10, 100):
            net = train.params_to_network(np.zeros(4 * nh + 1), nh)
            assert nn.parameter_count(net) == 4 * nh + 1

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            train.params_to_network(np.zeros(40), 10)

    def test_layout_round_trip(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(4 * 3 + 1)
        net = train.params_to_network(p, 3)
        assert np.array_equal(np.array(net.layers[0].weights).ravel(), p[:6])
        assert np.array_equal(np.array(net.layers[0].bias), p[6:9])
        assert np.array_equal(np.array(net.layers[1].weights).ravel(), p[9:12])
        assert net.layers[1].bias[0] == p[12]


class TestCmaes:
    def test_sphere_benchmark(self):
        cfg = train.CmaesConfig(population=20, iterations=100, sigma0=1.0,
                                seed=0)
        best, hist = train.cmaes_minimize(
            lambda z: float(np.sum(z ** 2)), 10, cfg)
        # <= 2000 evaluations (20 x 100)
        assert hist[-1] < 1e-6

    def test_rosenbrock(self):
        def rosen(z):
            return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2
                                + (1.0 - z[:-1]) ** 2))
        cfg = train.CmaesConfig(population=40, iterations=600, sigma0=0.5,
                                seed=3)
        best, hist = train.cmaes_minimize(rosen, 5, cfg)
        assert hist[-1] < 1e-3

    def test_history_monotone(self):
        cfg = train.CmaesConfig(population=10, iterations=30, seed=2)
        _, hist = train.cmaes_minimize(
            lambda z: float(np.sum(np.abs(z))), 4, cfg)
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_nan_treated_as_inf(self):
        calls = {"n": 0}

        def objective(z):
            calls["n"] += 1
            return float("nan") if calls["n"] % 3 == 0 else float(np.sum(z ** 2))

        cfg = train.CmaesConfig(population=8, iterations=20, seed=1)
        best, hist = train.cmaes_minimize(objective, 3, cfg)
        assert math.isfinite(hist[-1])

    def test_determinism(self):
        cfg = train.CmaesConfig(population=12, iterations=15, seed=7)
        f = lambda z: float(np.sum(z ** 2) + z[0])
        a, ha = train.cmaes_minimize(f, 4, cfg)
        b, hb = train.cmaes_minimize(f, 4, cfg)
        assert np.array_equal(a, b)
        assert ha == hb


class TestTrainController:
    def test_reproducible_and_trimmed(self):
        cfg = train.CmaesConfig(population=8, iterations=3, seed=11)
        roll = train.RolloutConfig(n_steps=60)
        a, _ = train.train_controller(4, rollout_cfg=roll, cmaes_cfg=cfg)
        b, _ = train.train_controller(4, rollout_cfg=roll, cmaes_cfg=cfg)
        assert a == b
        assert abs(nn.forward(a, (0.0, 0.0))[0]) < 1e-12

    def test_trim_only_touches_output_bias(self):
        rng = np.random.default_rng(4)
        net = train.params_to_network(rng.standard_normal(9), 2)
        trimmed = train.trim_output_bias(net)
        assert trimmed.layers[0] == net.layers[0]
        assert trimmed.layers[1].weights == net.layers[1].weights
        assert abs(nn.forward(trimmed, (0.0, 0.0))[0]) < 1e-12


class TestWidenController:
    def test_widened_shape_and_origin(self):
        rng = np.random.default_rng(5)
        small = train.trim_output_bias(
            train.params_to_network(rng.standard_normal(13), 3))
        wide = train.widen_controller(small, 12, seed=2)
        assert nn.parameter_count(wide) == 4 * 12 + 1
        assert abs(nn.forward(wide, (0.0, 0.0))[0]) < 1e-12

    def test_widened_policy_stays_close(self):
        rng = np.random.default_rng(6)
        small = train.trim_output_bias(
            train.params_to_network(rng.standard_normal(13), 3))
        wide = train.widen_controller(small, 12, seed=2)
        pts = rng.uniform(-1.0, 1.0, size=(50, 2))
        gap = max(abs(nn.forward(wide, p)[0] - nn.forward(small, p)[0])
                  for p in pts)
        assert gap < 0.05

    def test_shrinking_rejected(self):
        rng = np.random.default_rng(7)
        small = train.params_to_network(rng.standard_normal(13), 3)
        with pytest.raises(ValueError):
            train.widen_controller(small, 2)


def test_package_and_cli_imports_leave_train_unloaded():
    code = ("import sys, barricade, barricade.cli\n"
            "assert 'barricade.train' not in sys.modules\n"
            "assert 'train' in barricade.__all__\n"
            "from barricade import train\n"
            "assert train is barricade.train\n")
    src = os.path.dirname(os.path.dirname(train.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=60)
