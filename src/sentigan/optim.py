"""Adam optimizer with bias correction, one in-place update of a flat vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrainingError


@dataclass
class AdamState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        if self.learning_rate < 0:
            raise TrainingError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise TrainingError("Adam betas must lie in (0, 1)")


def adam_step(state: AdamState, theta: np.ndarray, grad):
    """One Adam update of the parameter vector theta, which is mutated in
    place and also returned.

    Moment buffers are allocated on first use and must keep theta's shape
    afterwards.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape:
        raise DimensionError("adam_step gradient shape", theta.shape, grad.shape)
    finite = np.isfinite(grad)
    if not finite.all():
        raise TrainingError(f"non-finite gradient at flat index {int(np.argmin(finite))}")
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    theta -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return theta
