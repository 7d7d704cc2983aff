"""Dense-network numerical core: layers, activations, reverse-mode gradients.

Everything is float64 numpy. Networks are plain lists of DenseLayer; the
forward pass returns the caches the backward pass needs, so there is no
hidden state anywhere.
"""

from __future__ import annotations

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
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2:
            raise DimensionError("DenseLayer weights", "2-d matrix", f"{self.weights.ndim}-d")
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                "DenseLayer bias", (self.weights.shape[0],), self.bias.shape
            )
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]


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
    """Full network forward over a vector or a (batch, in) matrix.

    Returns (output, caches); caches feed backward()."""
    a = np.asarray(x, dtype=float)
    caches = []
    for i, layer in enumerate(layers):
        if a.shape[-1] != layer.in_size:
            raise DimensionError(f"layer {i} input size", layer.in_size, a.shape[-1])
        z = a @ layer.weights.T + layer.bias
        caches.append((a, z))
        a = activate(layer.activation, z)
    if not np.all(np.isfinite(a)):
        raise NumericalError("forward pass produced non-finite output")
    return a, caches


def backward(layers, caches, grad_out):
    """Reverse-mode gradients through a dense stack.

    grad_out is dL/d(output) per sample. Returns ([(dW, db), ...], dL/d(input));
    batched inputs accumulate parameter gradients by summation over the batch.
    """
    if len(caches) != len(layers):
        raise UsageError(
            f"backward called with {len(caches)} caches for {len(layers)} layers; "
            "run forward() on the same input first"
        )
    g = np.asarray(grad_out, dtype=float)
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        x_in, z = caches[i]
        gz = g * activate_grad(layers[i].activation, z)
        if gz.ndim == 1:
            dw = np.outer(gz, x_in)
            db = gz.copy()
        else:
            dw = gz.T @ x_in
            db = gz.sum(axis=0)
        grads[i] = (dw, db)
        g = gz @ layers[i].weights
    return grads, g


def flatten_params(layers):
    """[(W, b), ...] view of a network's parameters, in layer order."""
    out = []
    for layer in layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def flatten_grads(grads):
    out = []
    for dw, db in grads:
        out.append(dw)
        out.append(db)
    return out
