"""Adam optimizer with bias correction, one in-place update of a flat vector
(P,) or of the stacked vectors (K, P) of K lockstep members.

The moments are kept unnormalized, m = b1 m + g and v = b2 v + g g, and the
factors (1 - b1), sqrt(1 - b2) and both bias corrections are folded into one
step size and one epsilon per call (Kingma & Ba 2015, section 2). After the
finiteness check the update makes ten passes over theta's size and equals
the textbook one up to rounding. The update runs in theta's dtype: the
gradient is cast to it and the moments are allocated in it, so a float32
theta is updated in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrainingError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Learning rate and state of one Adam run. first_moment and
    second_moment are the unnormalized sums m = b1 m + g and v = b2 v + g g,
    i.e. the textbook moments divided by (1 - b1) and (1 - b2)."""

    learning_rate: float
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adam_step(state: AdamState, theta: np.ndarray, grad):
    """One Adam update of the parameter vector theta, which is mutated in
    place and also returned. A 2-d theta holds one member per row; a
    non-finite gradient names the member and leaves all state unmoved.

    The moment buffers are allocated on first use and must keep theta's
    shape afterwards; the update itself allocates nothing. grad is consumed:
    it serves as the update's work array and holds no gradient afterwards.
    """
    grad = np.asarray(grad, dtype=theta.dtype)
    if grad.shape != theta.shape:
        raise DimensionError("adam_step gradient shape", theta.shape, grad.shape)
    if not np.isfinite(grad).all():
        where = np.argwhere(~np.isfinite(grad))[0].tolist()
        member = where[0] if grad.ndim == 2 else None
        of = "" if member is None else f" of member {member}"
        raise TrainingError(f"non-finite gradient at flat index {where[-1]}{of}", member=member)
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
    state.step_count += 1
    t = state.step_count
    b1, b2 = BETA1, BETA2
    m, v = state.first_moment, state.second_moment
    # textbook: theta -= lr m_hat / (sqrt(v_hat) + eps), m_hat = (1 - b1) m / (1 - b1^t)
    # and v_hat = (1 - b2) v / (1 - b2^t) of the unnormalized m and v
    root = math.sqrt((1 - b2**t) / (1 - b2))
    alpha = state.learning_rate * (1 - b1) / (1 - b1**t) * root
    eps = EPSILON * root
    m *= b1
    m += grad
    v *= b2
    grad *= grad
    v += grad
    np.sqrt(v, out=grad)
    grad += eps
    np.divide(m, grad, out=grad)
    grad *= alpha
    theta -= grad
    return theta
