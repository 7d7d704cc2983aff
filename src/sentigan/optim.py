"""Adam optimizer with bias correction, one in-place update of a flat vector
(P,) or of the stacked vectors (K, P) of K lockstep members."""

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
    scratch: np.ndarray | None = None  # work array of theta's shape

    def __post_init__(self):
        if self.learning_rate < 0:
            raise TrainingError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise TrainingError("Adam betas must lie in (0, 1)")


def adam_step(state: AdamState, theta: np.ndarray, grad):
    """One Adam update of the parameter vector theta, which is mutated in
    place and also returned. A 2-d theta holds one member per row; a
    non-finite gradient names the member.

    Moment and scratch buffers are allocated on first use and must keep
    theta's shape afterwards; the update itself allocates nothing. grad is
    consumed: it serves as the update's second work array and holds no
    gradient afterwards.
    """
    grad = np.asarray(grad, dtype=float)
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
        state.scratch = np.empty_like(theta)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v, work = state.first_moment, state.second_moment, state.scratch
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    m *= b1
    np.multiply(grad, 1 - b1, out=work)
    m += work
    v *= b2
    np.multiply(grad, 1 - b2, out=work)
    work *= grad
    v += work
    # theta -= lr m_hat / (sqrt(v_hat) + eps), the step built in grad
    np.divide(v, 1 - b2**t, out=work)
    np.sqrt(work, out=work)
    work += state.epsilon
    step = grad
    np.divide(m, 1 - b1**t, out=step)
    step *= state.learning_rate
    step /= work
    theta -= step
    return theta
