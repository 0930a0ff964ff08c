"""Controller networks: forward pass, Expr lowering, persistence."""

import json
import math

import numpy as np
import pytest

from barricade import network as nn
from barricade import symexpr as sx


def _random_net(rng, shape=(2, 5, 1), activations=("tanh", "tanh")):
    layers = []
    for k in range(len(shape) - 1):
        w = rng.uniform(-1.5, 1.5, size=(shape[k + 1], shape[k]))
        b = rng.uniform(-0.5, 0.5, size=shape[k + 1])
        layers.append(nn.make_layer(w, b, activations[k]))
    return nn.Network(tuple(layers))


class TestForward:
    def test_zero_network(self):
        net = nn.Network((nn.make_layer([[0.0, 0.0]], [0.0], "tanh"),))
        assert nn.forward(net, (3.7, -1.2)) == [0.0]

    def test_hand_composition(self):
        net = nn.Network((nn.make_layer([[1.0, 0.0]], [0.0], "tanh"),
                          nn.make_layer([[1.0]], [0.0], "tanh")))
        got = nn.forward(net, (0.5, 7.3))[0]
        assert abs(got - math.tanh(math.tanh(0.5))) < 1e-15
        assert abs(got - 0.4318082) < 1e-6

    def test_parameter_law(self):
        for nh in (10, 100, 1000):
            net = nn.Network((
                nn.make_layer(np.zeros((nh, 2)), np.zeros(nh), "tanh"),
                nn.make_layer(np.zeros((1, nh)), np.zeros(1), "tanh")))
            assert nn.parameter_count(net) == 4 * nh + 1

    def test_arity_mismatch(self):
        net = nn.Network((nn.make_layer([[1.0, 0.0]], [0.0], "tanh"),))
        with pytest.raises(nn.NetworkFormatError):
            nn.forward(net, (1.0,))

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(5)
        net = _random_net(rng)
        w_norms = [np.linalg.norm(np.array(l.weights), 2) for l in net.layers]
        lip = float(np.prod(w_norms))  # tanh slope <= 1
        for _ in range(200):
            a = rng.uniform(-2, 2, size=2)
            b = rng.uniform(-2, 2, size=2)
            da = np.array(nn.forward(net, a)) - np.array(nn.forward(net, b))
            assert np.linalg.norm(da) <= lip * np.linalg.norm(a - b) + 1e-12


class TestToExpr:
    def test_zero_network_folds(self):
        net = nn.Network((nn.make_layer([[0.0, 0.0]], [0.0], "tanh"),))
        e = nn.to_expr(net)[0]
        assert e == sx.const(0.0)

    def test_one_neuron_structure(self):
        net = nn.Network((nn.make_layer([[1.0, 0.0]], [0.0], "tanh"),
                          nn.make_layer([[1.0]], [0.0], "tanh")))
        assert sx.to_sexpr(nn.to_expr(net)[0]) == "(tanh (tanh (var 0)))"

    def test_bit_for_bit_agreement(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            shape = (2, int(rng.integers(1, 8)), 1)
            act = rng.choice(["tanh", "sigmoid", "identity"], size=2)
            net = _random_net(rng, shape, tuple(act))
            exprs = nn.to_expr(net)
            for _ in range(10):
                y = rng.uniform(-2, 2, size=2)
                ref = nn.forward(net, y)
                got = [sx.eval_expr(e, y) for e in exprs]
                assert got == ref  # identical accumulation order, exact


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        net = _random_net(rng)
        path = tmp_path / "net.json"
        nn.save(net, path)
        assert nn.load(path) == net

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layers": [
            {"weights": [[1.0, 2.0], [1.0]], "bias": [0.0, 0.0],
             "activation": "tanh"}]}))
        with pytest.raises(nn.NetworkFormatError):
            nn.load(path)

    def test_rejects_dimension_chain_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layers": [
            {"weights": [[1.0, 2.0]], "bias": [0.0], "activation": "tanh"},
            {"weights": [[1.0, 1.0]], "bias": [0.0], "activation": "tanh"}]}))
        with pytest.raises(nn.NetworkFormatError):
            nn.load(path)

    @pytest.mark.parametrize("layer", [
        {"weights": [["0.5", True]], "bias": ["0"]},
        {"weights": [["0.5", 1.0]], "bias": [0.0]},
        {"weights": [[True, 1.0]], "bias": [0.0]},
        {"weights": [[0.5, 1.0]], "bias": ["0"]},
        {"weights": [[0.5, 1.0]], "bias": [False]},
    ], ids=["strings_and_bool", "weight_string", "weight_bool",
            "bias_string", "bias_bool"])
    def test_rejects_numbers_that_are_strings_or_bools(self, tmp_path,
                                                       layer):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layers": [
            {**layer, "activation": "tanh"}]}))
        with pytest.raises(nn.NetworkFormatError):
            nn.load(path)

    @pytest.mark.parametrize("layer", [
        {"weights": [[math.nan, 1.0]], "bias": [0.0]},
        {"weights": [[0.5, math.inf]], "bias": [0.0]},
        {"weights": [[0.5, 1.0]], "bias": [10 ** 400]},
    ], ids=["weight_nan", "weight_inf", "bias_huge_int"])
    def test_rejects_numbers_that_are_not_finite(self, tmp_path, layer):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layers": [
            {**layer, "activation": "tanh"}]}))
        with pytest.raises(nn.NetworkFormatError):
            nn.load(path)

    def test_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"layers": [
            {"weights": [[1, -2]], "bias": [0], "activation": "tanh"}]}))
        net = nn.load(path)
        assert net.layers[0].weights == ((1.0, -2.0),)
        assert nn.controller_hash(net) == nn.controller_hash(nn.Network(
            (nn.make_layer([[1.0, -2.0]], [0.0], "tanh"),)))

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(nn.NetworkFormatError):
            nn.load(path)

    def test_hash_stable_and_sensitive(self):
        rng = np.random.default_rng(4)
        net = _random_net(rng)
        other = _random_net(rng)
        assert nn.controller_hash(net) == nn.controller_hash(net)
        assert nn.controller_hash(net) != nn.controller_hash(other)
