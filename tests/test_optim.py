import math
import tracemalloc

import numpy as np
import pytest

from sentigan.errors import DimensionError, TrainingError
from sentigan.optim import AdamState, adam_step


def test_zero_gradient_leaves_params_unchanged():
    state = AdamState(learning_rate=0.1)
    theta = np.array([1.0, -2.0])
    adam_step(state, theta, np.zeros(2))
    assert np.allclose(theta, [1.0, -2.0])
    assert state.step_count == 1


def test_first_step_magnitude_is_learning_rate():
    # bias-corrected first step moves by alpha * sign(g), up to epsilon
    for g in (0.3, -5.0, 1e-4):
        state = AdamState(learning_rate=0.05)
        theta = np.array([0.0])
        adam_step(state, theta, np.array([g]))
        assert theta[0] == pytest.approx(-0.05 * np.sign(g), rel=1e-3)


def test_scalar_quadratic_converges():
    # 100 steps on f(w) = (w - 3)^2 from w = 0
    state = AdamState(learning_rate=0.1)
    theta = np.array([0.0])
    for _ in range(100):
        adam_step(state, theta, 2.0 * (theta - 3.0))
    assert abs(theta[0] - 3.0) < 0.5


def test_step_count_increments():
    state = AdamState(learning_rate=0.01)
    theta = np.zeros(3)
    for expected in range(1, 6):
        adam_step(state, theta, np.ones(3))
        assert state.step_count == expected


def test_non_finite_gradient_raises_with_index():
    state = AdamState(learning_rate=0.01)
    theta = np.zeros(4)
    with pytest.raises(TrainingError) as e:
        adam_step(state, theta, np.array([0.0, 0.0, 1.0, np.nan]))
    assert "flat index 3" in str(e.value)
    assert state.step_count == 0 and not theta.any()


def test_shape_mismatch_raises():
    state = AdamState(learning_rate=0.01)
    with pytest.raises(DimensionError):
        adam_step(state, np.zeros(2), np.zeros(3))


def test_flat_update_equals_update_of_each_piece():
    # Adam is elementwise: one update of a concatenation is bitwise the
    # update of each piece with its own state
    rng = np.random.default_rng(5)
    sizes = (6, 3, 4)
    theta = rng.normal(size=sum(sizes))
    pieces = [p.copy() for p in np.split(theta, np.cumsum(sizes)[:-1])]
    flat_state = AdamState(learning_rate=0.01)
    piece_states = [AdamState(learning_rate=0.01) for _ in sizes]
    for _ in range(20):
        grad = rng.normal(size=theta.size)
        adam_step(flat_state, theta, grad.copy())
        for p, g, state in zip(pieces, np.split(grad, np.cumsum(sizes)[:-1]), piece_states):
            adam_step(state, p, g)
    assert np.array_equal(theta, np.concatenate(pieces))


def test_determinism():
    def run():
        rng = np.random.default_rng(42)
        state = AdamState(learning_rate=0.01)
        theta = rng.normal(size=9)
        for _ in range(50):
            adam_step(state, theta, rng.normal(size=9))
        return theta.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_stacked_update_equals_update_of_each_member():
    # one (K, P) update is bitwise the update of each row with its own state
    rng = np.random.default_rng(6)
    theta = rng.normal(size=(3, 5))
    rows = [r.copy() for r in theta]
    stacked = AdamState(learning_rate=0.01)
    solo = [AdamState(learning_rate=0.01) for _ in rows]
    for _ in range(20):
        grad = rng.normal(size=theta.shape)
        for row, g, state in zip(rows, grad.copy(), solo):
            adam_step(state, row, g)
        adam_step(stacked, theta, grad)
    assert np.array_equal(theta, np.stack(rows))


def test_non_finite_gradient_names_the_member():
    state = AdamState(learning_rate=0.01)
    grad = np.zeros((3, 4))
    grad[2, 1] = np.inf
    with pytest.raises(TrainingError) as e:
        adam_step(state, np.zeros((3, 4)), grad)
    assert e.value.member == 2
    assert "flat index 1 of member 2" in str(e.value)


def test_step_allocates_no_theta_sized_temporaries():
    state = AdamState(learning_rate=0.01)
    theta = np.zeros((7, 4000))
    adam_step(state, theta, np.ones_like(theta))
    grad = np.ones_like(theta)
    tracemalloc.start()
    adam_step(state, theta, grad)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < theta.nbytes / 4  # the finiteness mask only


def textbook_adam(theta, grads, rates, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's Algorithm 1, one learning rate per step."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, (g, lr) in enumerate(zip(grads, rates), start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_update_matches_the_textbook_bias_corrected_adam():
    # 1,000 steps with a learning-rate decay half way, as the LSTM's
    # plateau schedule sets it between steps
    rng = np.random.default_rng(12)
    theta = rng.normal(size=(2, 50))
    grads = rng.normal(scale=rng.uniform(1e-3, 10.0, size=(1000, 1, 1)), size=(1000, 2, 50))
    rates = [0.01] * 500 + [0.005] * 500
    expected = textbook_adam(theta, grads, rates)
    state = AdamState(learning_rate=0.01)
    for g, lr in zip(grads, rates):
        state.learning_rate = lr
        adam_step(state, theta, g.copy())
    assert np.max(np.abs(theta - expected) / np.abs(expected)) <= 1e-12


def work_array_adam(theta, grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """The update as it ran with a separate work array: the same ten passes,
    in the same order, as adam_step makes inside the consumed gradient."""
    m, v, work = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)
    for t, g in enumerate(grads, start=1):
        root = math.sqrt((1 - b2**t) / (1 - b2))
        m *= b1
        m += g
        v *= b2
        np.multiply(g, g, out=work)
        v += work
        np.sqrt(v, out=work)
        work += eps * root
        step = np.divide(m, work)
        step *= lr * (1 - b1) / (1 - b1**t) * root
        theta -= step
    return theta


def test_update_inside_the_gradient_is_bitwise_the_work_array_update():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=(7, 300))
    grads = rng.normal(scale=rng.uniform(1e-3, 10.0, size=(50, 1, 1)), size=(50, 7, 300))
    expected = work_array_adam(theta.copy(), grads)
    state = AdamState(learning_rate=0.01)
    for g in grads:
        adam_step(state, theta, g.copy())
    assert np.array_equal(theta, expected)
