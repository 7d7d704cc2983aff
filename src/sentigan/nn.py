"""Dense-network numerical core: layers, activations, reverse-mode gradients.

Everything is float64 numpy. A network is a list of DenseLayer whose arrays
can be views into one flat parameter vector (`pack`); `carve` lays out that
vector and the flat gradient backward() fills alike. The forward pass
returns the caches the backward pass needs, so there is no hidden state.

A stack of K networks of one shape ("members", trained in lockstep) has a
leading member axis on every array: weights (K, out, in), biases (K, out),
inputs (K, B, in) and a flat vector (K, P). The same forward() and
backward() serve both, by transposing and reducing over the trailing axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, UsageError

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "identity")
LEAKY_SLOPE = 0.01


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z >= 0.0, z, LEAKY_SLOPE * z)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "identity":
        return z
    raise UsageError(f"unknown activation {name!r}")


def activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    """d activation / d z, evaluated at pre-activation z."""
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "leaky_relu":
        return np.where(z >= 0.0, 1.0, LEAKY_SLOPE)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)
    if name == "identity":
        return np.ones_like(z)
    raise UsageError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in), or (K, out, in) for K members
    bias: np.ndarray  # (out,), or (K, out)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim not in (2, 3):
            raise DimensionError("DenseLayer weights", "2-d matrix or 3-d stack",
                                 f"{self.weights.ndim}-d")
        if self.bias.shape != self.weights.shape[:-1]:
            raise DimensionError("DenseLayer bias", self.weights.shape[:-1], self.bias.shape)
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")

    @property
    def in_size(self) -> int:
        return self.weights.shape[-1]


def init_layer(rng: np.random.Generator, fan_in: int, fan_out: int, activation: str) -> DenseLayer:
    """Seeded initialization: Glorot-uniform for saturating/identity units,
    He-scaled normal for (leaky) relu."""
    if activation in ("relu", "leaky_relu"):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
    else:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
    return DenseLayer(w, np.zeros(fan_out), activation)


def build_mlp(rng, in_size, hidden, out_size, hidden_activation, out_activation):
    """Stack of dense layers: in_size -> hidden[0] -> ... -> out_size."""
    sizes = [in_size, *hidden, out_size]
    layers = []
    for i in range(len(sizes) - 1):
        act = hidden_activation if i < len(sizes) - 2 else out_activation
        layers.append(init_layer(rng, sizes[i], sizes[i + 1], act))
    return layers


def forward(layers, x):
    """Full network forward over a vector, a (batch, in) matrix or, for
    stacked layers, a (K, batch, in) stack.

    Returns (output, caches); caches feed backward()."""
    a = np.asarray(x, dtype=float)
    caches = []
    for i, layer in enumerate(layers):
        if a.shape[-1] != layer.in_size:
            raise DimensionError(f"layer {i} input size", layer.in_size, a.shape[-1])
        z = a @ layer.weights.swapaxes(-1, -2)
        z += layer.bias if layer.bias.ndim == 1 else layer.bias[:, None, :]
        caches.append((a, z))
        a = activate(layer.activation, z)
    finite = np.isfinite(a)
    if not finite.all():
        member = int(np.argmin(finite.reshape(len(a), -1).all(axis=1))) if a.ndim == 3 else None
        raise NumericalError("forward pass produced non-finite output", member=member)
    return a, caches


def carve(flat, shapes):
    """Consecutive views into the last axis of `flat`, one per shape, in
    order; the leading (member) axes of `flat` lead every view."""
    lead = flat.shape[:-1]
    views = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(*lead, *shape))
        start += size
    if start != flat.shape[-1]:
        raise DimensionError("flat parameter vector size", start, flat.shape[-1])
    return views


def layer_shapes(layers):
    """The parameter layout of one member of a dense stack: W0, b0, W1, b1, ..."""
    return [s for layer in layers for s in (layer.weights.shape[-2:], layer.bias.shape[-1:])]


def pack(layers):
    """Copy the layers' weights and biases into one new flat vector (K, P)
    for stacked layers, (P,) otherwise, make them views into it, and return
    the vector."""
    lead = layers[0].bias.shape[:-1]
    theta = np.concatenate(
        [a.reshape(*lead, -1) for layer in layers for a in (layer.weights, layer.bias)],
        axis=-1,
    )
    views = carve(theta, layer_shapes(layers))
    for layer, w, b in zip(layers, views[0::2], views[1::2]):
        layer.weights, layer.bias = w, b
    return theta


def backward(layers, caches, grad_out, grads=None):
    """Reverse-mode gradients through a dense stack.

    grad_out is dL/d(output) per sample. dL/d(parameters) is written into
    `grads`, the arrays W0, b0, W1, b1, ... in the layout of layer_shapes
    (views of one flat gradient, carved once by the caller), summed over the
    batch, and None is returned: no caller of a parameter update reads
    dL/d(input), so the first layer's input product is skipped. grads=None
    skips the parameter gradients instead and returns dL/d(input).
    """
    if len(caches) != len(layers):
        raise UsageError(
            f"backward called with {len(caches)} caches for {len(layers)} layers; "
            "run forward() on the same input first"
        )
    g = np.asarray(grad_out, dtype=float)
    for i in reversed(range(len(layers))):
        x_in, z = caches[i]
        gz = g * activate_grad(layers[i].activation, z)
        if grads is not None:
            dw, db = grads[2 * i], grads[2 * i + 1]
            if gz.ndim == 1:
                np.outer(gz, x_in, out=dw)
                db[...] = gz
            else:
                np.matmul(gz.swapaxes(-1, -2), x_in, out=dw)
                gz.sum(axis=-2, out=db)
            if i == 0:
                return None
        g = gz @ layers[i].weights
    return g
