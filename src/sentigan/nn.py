"""Dense-network numerical core: layers, activations, reverse-mode gradients.

Everything is numpy in the dtype of the network's `theta`: forward() and
backward() cast their inputs to it and every pass keeps it, so a float32
network runs in float32. A network (`Dense`) is its flat parameter vector
`theta`; `carve` lays out the layers' weight and bias views of it, and of
the flat gradient backward() fills, once. The forward pass returns
the caches the backward pass needs, so there is no hidden state. Each
activation is one row of the table `ACTIVATIONS`, the function and its
derivative, which forward() and backward() index; `Dense` refuses a name
the table lacks.

A stack of K networks of one shape ("members", trained in lockstep) has a
leading member axis on every array: a flat vector (K, P), weights
(K, out, in), biases (K, out) and inputs (K, B, in). The same forward() and
backward() serve both, by transposing and reducing over the trailing axes.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DimensionError, UsageError

LEAKY_SLOPE = 0.01
# name -> (the activation of pre-activation z, its derivative at z whose
# activation is a): the derivative is a bool mask for relu, z's dtype otherwise
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: z > 0.0),
    # leaky relu' is the mask's 1 where z >= 0, the slope elsewhere
    "leaky_relu": (lambda z: np.maximum(z, LEAKY_SLOPE * z),
                   lambda z, a: np.maximum(z >= 0.0, z.dtype.type(LEAKY_SLOPE))),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    # 1 / (1 + exp(-z)) as exp(-log(1 + exp(-z))): logaddexp cannot
    # overflow, where exp(-z) does below z = -88.7 in float32
    "sigmoid": (lambda z: np.exp(-np.logaddexp(0.0, -z)), lambda z, a: a * (1.0 - a)),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
}


def param_shapes(sizes):
    """The layout of a dense network's flat parameter vector: W0, b0, W1,
    b1, ..., layer i's weights (sizes[i + 1], sizes[i]) and bias (sizes[i + 1],)."""
    return [s for n_in, n_out in zip(sizes, sizes[1:]) for s in ((n_out, n_in), (n_out,))]


class Dense:
    """A dense network: layer i maps sizes[i] to sizes[i + 1] units and
    applies activations[i]. Its parameters are the flat vector `theta`, (P,)
    or (K, P) for K stacked members; `weights` and `biases` are views of it
    in the layout of param_shapes, behind the member axis if there is one,
    and `grads` views of the zero gradient `grad` alike, all carved once."""

    def __init__(self, sizes, activations, theta):
        if len(activations) != len(sizes) - 1:
            raise DimensionError("activation count", len(sizes) - 1, len(activations))
        for name in activations:
            if name not in ACTIVATIONS:
                raise UsageError(f"unknown activation {name!r}")
        self.sizes, self.activations = tuple(sizes), tuple(activations)
        self.theta = theta
        shapes = param_shapes(sizes)
        views = carve(theta, shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        self.grad = np.zeros_like(theta)
        self.grads = carve(self.grad, shapes)

    def stacked(self, count: int):
        """`count` copies of this network along a leading member axis."""
        return Dense(self.sizes, self.activations, np.repeat(self.theta[None], count, axis=0))


def glorot_uniform(rng, w):
    """Fill w (fan_out, fan_in) in place from U(±sqrt(6 / (fan_in + fan_out)))."""
    bound = np.sqrt(6.0 / sum(w.shape))
    w[...] = rng.uniform(-bound, bound, size=w.shape)


def build_mlp(rng, in_size, hidden, out_size, hidden_activation, out_activation):
    """Dense network in_size -> hidden[0] -> ... -> out_size, seeded:
    Glorot-uniform weights for saturating/identity units, He-scaled normal
    for (leaky) relu, zero biases."""
    sizes = [in_size, *hidden, out_size]
    activations = [hidden_activation] * (len(sizes) - 2) + [out_activation]
    net = Dense(sizes, activations, np.zeros(sum(map(math.prod, param_shapes(sizes)))))
    for w, activation in zip(net.weights, activations):
        if activation in ("relu", "leaky_relu"):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)  # fan_in
        else:
            glorot_uniform(rng, w)
    return net


def forward(net, x):
    """Full network forward over a (batch, in) matrix or, for a stacked
    network, a (K, batch, in) stack.

    Returns (output, caches); caches feed backward(), one (input,
    pre-activation, output) per layer."""
    a = np.asarray(x, dtype=net.theta.dtype)
    caches = []
    for i, (w, b, activation) in enumerate(zip(net.weights, net.biases, net.activations)):
        if a.shape[-1] != w.shape[-1]:
            raise DimensionError(f"layer {i} input size", w.shape[-1], a.shape[-1])
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        x_in, a = a, ACTIVATIONS[activation][0](z)
        caches.append((x_in, z, a))
    return a, caches


def carve(flat, shapes):
    """Consecutive views into the last axis of `flat`, one per shape, in
    order; the leading (member) axes of `flat` lead every view."""
    size = sum(math.prod(shape) for shape in shapes)
    if size != flat.shape[-1]:
        raise DimensionError("flat parameter vector size", size, flat.shape[-1])
    lead = flat.shape[:-1]
    views = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(*lead, *shape))
        start += size
    return views


def backward(net, caches, grad_out, grads=None):
    """Reverse-mode gradients through a dense network.

    grad_out is dL/d(output) per sample. dL/d(parameters) is written into
    `grads`, the arrays W0, b0, W1, b1, ... (net.grads, or views of another
    flat vector in the same layout), summed over the batch, and None is
    returned: no caller of a parameter update reads dL/d(input), so the first
    layer's input product is skipped. grads=None skips the parameter
    gradients instead and returns dL/d(input).
    """
    if len(caches) != len(net.weights):
        raise UsageError(
            f"backward called with {len(caches)} caches for {len(net.weights)} layers; "
            "run forward() on the same input first"
        )
    g = np.asarray(grad_out, dtype=net.theta.dtype)
    for i in reversed(range(len(caches))):
        x_in, z, a = caches[i]
        gz = g * ACTIVATIONS[net.activations[i]][1](z, a)
        if grads is not None:
            np.matmul(gz.swapaxes(-1, -2), x_in, out=grads[2 * i])
            np.add.reduce(gz, axis=-2, out=grads[2 * i + 1])
            if i == 0:
                return None
        g = gz @ net.weights[i]
    return g
