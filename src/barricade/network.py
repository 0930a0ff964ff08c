"""Feedforward neural-network controller: layers, JSON persistence and the
forward passes that the expression node `symexpr.net` runs: the scalar
reference `forward`, bit for bit the unrolled `to_expr` sums (the
neuron-by-neuron form tests check the layer-wise passes against), and the
arrays of `symexpr.array_program` (`batch_arrays`) and `interval._inet`.
"""

from __future__ import annotations

import json
import hashlib
import sys
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "sigmoid", "identity")


class NetworkFormatError(ValueError):
    """Malformed network file or inconsistent layer dimensions."""


@dataclass(frozen=True)
class Layer:
    weights: tuple   # rows: tuple of tuple of float, shape d_out x d_in
    bias: tuple      # d_out floats
    activation: str

    @property
    def d_out(self):
        return len(self.weights)

    @property
    def d_in(self):
        return len(self.weights[0])


@dataclass(frozen=True)
class Network:
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        _validate(self.layers)

    @property
    def input_dim(self):
        return self.layers[0].d_in

    @property
    def output_dim(self):
        return self.layers[-1].d_out


def _validate(layers):
    if not layers:
        raise NetworkFormatError("network needs at least one layer")
    for k, layer in enumerate(layers):
        if layer.activation not in ACTIVATIONS:
            raise NetworkFormatError("unknown activation %r" % layer.activation)
        if not layer.weights:
            raise NetworkFormatError("layer %d has no rows" % k)
        widths = {len(row) for row in layer.weights}
        if len(widths) != 1:
            raise NetworkFormatError("layer %d has ragged weight rows" % k)
        if len(layer.bias) != layer.d_out:
            raise NetworkFormatError("layer %d bias length mismatch" % k)
        if k > 0 and layer.d_in != layers[k - 1].d_out:
            raise NetworkFormatError(
                "layer %d expects %d inputs but layer %d outputs %d"
                % (k, layer.d_in, k - 1, layers[k - 1].d_out))


def json_number(v):
    """v, a finite JSON number, as a float.  Raises TypeError for a bool,
    a string, NaN, an infinity or an integer beyond the float range,
    quoting at most 40 characters of v, or an integer's length in bits."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not -sys.float_info.max <= v <= sys.float_info.max):
        raise TypeError("%s is not a finite number" % (
            "a %d-bit integer" % v.bit_length() if type(v) is int
            else "%.40r" % (v,)))
    return float(v)


def json_rows(v):
    """v, a JSON array of arrays of numbers, as lists of floats."""
    return [[json_number(x) for x in row] for row in v]


def make_layer(weights, bias, activation):
    return Layer(tuple(tuple(float(w) for w in row) for row in weights),
                 tuple(float(b) for b in bias), activation)


def parameter_count(net):
    return sum(layer.d_out * layer.d_in + layer.d_out for layer in net.layers)


def _act_scalar(name, v):
    import math
    if name == "tanh":
        return math.tanh(v)
    if name == "sigmoid":
        return 1.0 / (1.0 + math.exp(-v))
    return v


def forward(net, y):
    """Numeric forward pass.

    Accumulation order matches the Expr produced by to_expr term for term,
    so eval(to_expr(net), y) == forward(net, y) bit for bit.
    """
    if len(y) != net.input_dim:
        raise NetworkFormatError(
            "input arity %d, network expects %d" % (len(y), net.input_dim))
    values = list(y)
    for layer in net.layers:
        out = []
        for j in range(layer.d_out):
            row = layer.weights[j]
            acc = row[0] * values[0]
            for k in range(1, len(row)):
                acc = acc + row[k] * values[k]
            acc = acc + layer.bias[j]
            out.append(_act_scalar(layer.activation, acc))
        values = out
    return values


def _act_expr(name, e):
    from . import symexpr as sx     # symexpr imports this module
    if name == "tanh":
        return sx.tanh(e)
    if name == "sigmoid":
        return sx.div(sx.const(1.0), sx.add(sx.const(1.0), sx.exp(sx.neg(e))))
    return e


def to_expr(net, inputs=None):
    """Lower the network to one Expr per output, over var(0..d_in-1),
    neuron by neuron."""
    from . import symexpr as sx     # symexpr imports this module
    if inputs is None:
        inputs = [sx.var(i) for i in range(net.input_dim)]
    values = list(inputs)
    for layer in net.layers:
        out = []
        for j in range(layer.d_out):
            row = layer.weights[j]
            acc = sx.mul(sx.const(row[0]), values[0])
            for k in range(1, len(row)):
                acc = sx.add(acc, sx.mul(sx.const(row[k]), values[k]))
            acc = sx.add(acc, sx.const(layer.bias[j]))
            out.append(_act_expr(layer.activation, acc))
        values = out
    return values


# --- batched numpy forward ------------------------------------------------

def numpy_arrays(net):
    return [(np.array(l.weights, dtype=float), np.array(l.bias, dtype=float),
             l.activation) for l in net.layers]


# The widest batch whose bias is repeated to the batch width.
REPEAT_MAX = 256


def batch_arrays(net, batch):
    """numpy_arrays(net) with each bias shaped to add to (d_out, batch).

    Up to REPEAT_MAX columns the bias is repeated to that shape, which
    numpy adds two to three times as fast as a broadcast column.  Wider
    batches broadcast it, costing no memory (a repeated bias is 8 MB at
    100 neurons and 10,000 columns)."""
    return [(w, np.repeat(b[:, None], batch, axis=1) if batch <= REPEAT_MAX
             else b[:, None], act)
            for w, b, act in numpy_arrays(net)]


# --- JSON persistence ------------------------------------------------------

def to_dict(net):
    return {"layers": [{"weights": [list(row) for row in l.weights],
                        "bias": list(l.bias),
                        "activation": l.activation} for l in net.layers]}


def from_dict(data):
    try:
        layers = [make_layer(json_rows(l["weights"]),
                             [json_number(b) for b in l["bias"]],
                             l["activation"]) for l in data["layers"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise NetworkFormatError("bad network structure: %s" % exc) from exc
    return Network(tuple(layers))


def save(net, path):
    with open(path, "w") as fh:
        json.dump(to_dict(net), fh, indent=1)


def load(path):
    """The network of a JSON file.  Raises NetworkFormatError, naming the
    file, when json.load refuses it (digit limit included) or from_dict."""
    try:
        with open(path) as fh:
            return from_dict(json.load(fh))
    except ValueError as exc:   # NetworkFormatError is one
        raise NetworkFormatError("network file %s: %s" % (path, exc)) from None


def controller_hash(net):
    """Stable identity of the weights, recorded in certificates."""
    blob = json.dumps(to_dict(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
