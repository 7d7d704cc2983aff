"""Finite-difference verification of analytic gradients.

numerical_gradient is the generic central-difference oracle used by the test
suite against every trainable component; finite_difference_check wraps it for
plain dense stacks with a squared loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sentigan import nn

SATURATION_LIMIT = 30.0
# c in the roundoff floor c * eps * |L| / h of a central difference: each
# loss evaluation carries a few ulps of |L|, and the difference of two is
# divided by 2h (Nocedal & Wright, Numerical Optimization, section 8.1)
ROUNDOFF_FACTOR = 4.0


def numerical_gradient(f, arr, h: float = 1e-5):
    """Central-difference gradient of scalar f() w.r.t. the array arr, such
    as a network's theta.

    f must read the current contents of `arr` each call (it is perturbed in
    place entry by entry and restored)."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(|a|, |n|), treating tiny pairs as exact."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    denom = np.maximum(np.abs(a), np.abs(n))
    mask = denom > 1e-10
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - n)[mask] / denom[mask]))


def _mismatch(analytic, numeric, floor: float) -> float:
    """relative_error, counting entries within `floor` of each other as exact."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    return relative_error(np.where(np.abs(a - n) <= floor, n, a), n)


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_err: float
    per_layer: list = field(default_factory=list)  # (layer idx, rel err)
    saturated_layers: list = field(default_factory=list)
    passed: bool = False


def finite_difference_check(net, x, target, tolerance: float = 1e-4, h: float = 1e-5):
    """Compare backward() gradients of an MSE loss against central differences.

    Differences within the roundoff floor of the numeric estimate count as
    matching, so tiny gradient entries cannot fail the check. Layers whose
    pre-activations saturate a sigmoid/tanh are flagged in the report instead
    of failing the check."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)

    out, caches = nn.forward(net, x)
    grad_out = 2.0 * (out - target) / out.size
    nn.backward(net, caches, grad_out, net.grads)
    analytic = net.grads

    def loss():
        o, _ = nn.forward(net, x)
        return float(np.mean((o - target) ** 2))

    floor = ROUNDOFF_FACTOR * np.finfo(float).eps * abs(loss()) / h
    report = GradCheckReport(tolerance=tolerance, max_rel_err=0.0)
    for i, activation in enumerate(net.activations):
        pairs = zip(analytic[2 * i : 2 * i + 2], (net.weights[i], net.biases[i]))
        err = max(_mismatch(a, numerical_gradient(loss, p, h=h), floor) for a, p in pairs)
        saturated = activation in ("sigmoid", "tanh") and bool(
            np.any(np.abs(caches[i][1]) > SATURATION_LIMIT)
        )
        if saturated:
            report.saturated_layers.append(i)
        report.per_layer.append((i, err))
        if not saturated:
            report.max_rel_err = max(report.max_rel_err, err)
    report.passed = report.max_rel_err < tolerance
    return report
