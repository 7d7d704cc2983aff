import numpy as np
import pytest

from gradcheck import finite_difference_check, numerical_gradient, relative_error
from sentigan import nn
from sentigan.errors import DimensionError, UsageError
from sentigan.optim import AdamState, adam_step


def one_layer(weights, activation="identity"):
    """A one-layer network of the given weights and zero biases."""
    weights = np.asarray(weights, dtype=float)
    n_out, n_in = weights.shape
    return nn.Dense([n_in, n_out], [activation],
                    np.concatenate([weights.ravel(), np.zeros(n_out)]))


def identity_layer():
    return one_layer(np.eye(2))


def flat_backward(net, caches, grad_out):
    """(dL/d(parameters) as one flat vector in theta's layout, dL/d(input)),
    from the two jobs of backward()."""
    assert nn.backward(net, caches, grad_out, net.grads) is None
    return net.grad.copy(), nn.backward(net, caches, grad_out)


def test_dense_forward_identity():
    out, _ = nn.forward(identity_layer(), [[3.0, -1.0]])
    assert np.allclose(out, [[3.0, -1.0]])


def test_dense_forward_relu_clamps():
    layer = one_layer(np.eye(2), "relu")
    assert np.allclose(nn.forward(layer, [[3.0, -1.0]])[0], [[3.0, 0.0]])


def test_leaky_relu_slope():
    layer = one_layer([[1.0]], "leaky_relu")
    assert np.allclose(nn.forward(layer, [[-2.0]])[0], [[-0.02]])


def test_dense_forward_dimension_mismatch():
    with pytest.raises(DimensionError) as e:
        nn.forward(identity_layer(), [[1.0, 2.0, 3.0]])
    assert "2" in str(e.value) and "3" in str(e.value)


def test_backward_hand_chain_rule():
    # single identity layer, squared loss: d/dw (wx - y)^2 = 2(wx - y)x
    layer = one_layer([[1.0]])
    out, caches = nn.forward(layer, np.array([[2.0]]))
    grad_out = 2.0 * (out - 0.0)
    grad, _ = flat_backward(layer, caches, grad_out)
    assert np.allclose(grad, [8.0, 4.0])  # flat (dW, db)


def test_backward_zero_loss_gradient():
    rng = np.random.default_rng(0)
    layers = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    out, caches = nn.forward(layers, rng.normal(size=(1, 3)))
    grad, gin = flat_backward(layers, caches, np.zeros_like(out))
    assert grad.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    assert not grad.any()
    assert not gin.any()


def test_backward_without_forward_cache_is_usage_error():
    with pytest.raises(UsageError):
        nn.backward(identity_layer(), [], np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    layers = nn.build_mlp(rng, 5, [6], 3, "tanh", "identity")
    x = rng.normal(size=(1, 5))
    target = rng.normal(size=(1, 3))
    report = finite_difference_check(layers, x, target, tolerance=1e-4, h=1e-5)
    assert report.passed, f"max rel err {report.max_rel_err}"


def kink_free_check(act, seed):
    # resample until no pre-activation sits within h of a relu kink, where
    # central differences are invalid
    rng = np.random.default_rng(seed)
    for _ in range(50):
        layers = nn.build_mlp(rng, 4, [5, 5], 2, act, act)
        x = rng.normal(size=(1, 4))
        target = rng.normal(size=(1, 2))
        _, caches = nn.forward(layers, x)
        if all(np.min(np.abs(z)) > 1e-3 for _, z in caches):
            break
    return finite_difference_check(layers, x, target)


@pytest.mark.parametrize("act", ["relu", "leaky_relu", "sigmoid", "tanh", "identity"])
def test_gradients_every_activation(act):
    report = kink_free_check(act, seed=nn.ACTIVATIONS.index(act))
    assert report.passed, f"{act}: {report.max_rel_err}"


def test_gradcheck_counts_roundoff_as_matching():
    # seed 17 yields gradient entries so small that their central-difference
    # estimates differ from them by roundoff alone
    report = kink_free_check("leaky_relu", seed=17)
    assert report.passed, report.max_rel_err


def test_gradcheck_catches_wrong_gradient(monkeypatch):
    rng = np.random.default_rng(0)
    layers = nn.build_mlp(rng, 4, [5], 2, "tanh", "identity")
    monkeypatch.setattr(nn, "activate_grad", lambda name, z: np.ones_like(z))
    report = finite_difference_check(layers, rng.normal(size=(1, 4)), rng.normal(size=(1, 2)))
    assert not report.passed


def test_linear_net_gradients_near_exact():
    rng = np.random.default_rng(3)
    layers = nn.build_mlp(rng, 4, [], 3, "identity", "identity")
    report = finite_difference_check(layers, rng.normal(size=(1, 4)), rng.normal(size=(1, 3)))
    assert report.max_rel_err < 1e-8


def test_saturated_sigmoid_flagged_not_failed():
    layer = one_layer([[50.0]], "sigmoid")
    report = finite_difference_check(layer, np.array([[1.0]]), np.array([[0.0]]))
    assert report.saturated_layers == [0]
    assert report.passed


def test_batched_backward_matches_sum_of_samples():
    rng = np.random.default_rng(7)
    layers = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    xs = rng.normal(size=(6, 3))
    gouts = rng.normal(size=(6, 2))
    out_b, caches_b = nn.forward(layers, xs)
    grad_b, _ = flat_backward(layers, caches_b, gouts)
    acc = np.zeros_like(grad_b)
    for x, g in zip(xs, gouts):
        _, caches = nn.forward(layers, x[None])
        acc += flat_backward(layers, caches, g[None])[0]
    assert relative_error(grad_b, acc) < 1e-9


def layer_arrays(net):
    """W0, b0, W1, b1, ... of a network."""
    return [a for pair in zip(net.weights, net.biases) for a in pair]


def test_dense_layers_are_views_of_theta():
    rng = np.random.default_rng(8)
    net = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    theta = net.theta
    assert theta.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    arrays = layer_arrays(net)
    for a in arrays:
        assert np.shares_memory(theta, a)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), theta)
    theta[...] = 0.0
    assert not any(a.any() for a in arrays)


def test_backward_without_grads_returns_only_the_input_gradient():
    rng = np.random.default_rng(9)
    layers = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    xs = rng.normal(size=(5, 3))
    out, caches = nn.forward(layers, xs)
    gouts = rng.normal(size=out.shape)
    # the chain rule by hand: identity output layer, tanh hidden layer
    z0 = caches[0][1]
    expected = ((gouts @ layers.weights[1]) * (1.0 - np.tanh(z0) ** 2)) @ layers.weights[0]
    assert np.array_equal(nn.backward(layers, caches, gouts), expected)


def stacked_mlp(rng, k, sizes, hidden_activation, out_activation):
    """K independently initialized members of one shape, and their stack."""
    members = [nn.build_mlp(rng, sizes[0], sizes[1:-1], sizes[-1], hidden_activation,
                            out_activation) for _ in range(k)]
    stack = nn.Dense(members[0].sizes, members[0].activations,
                     np.stack([m.theta for m in members]))
    return members, stack


@pytest.mark.parametrize("acts", [("relu", "tanh"), ("leaky_relu", "sigmoid")])
def test_stacked_pass_equals_each_member_pass(acts):
    # the member axis is bookkeeping only: each member's output, input
    # gradient and parameter gradient are bitwise those of its own pass
    rng = np.random.default_rng(10)
    members, stack = stacked_mlp(rng, 3, [7, 5, 4, 2], *acts)
    xs = rng.normal(size=(3, 6, 7))
    gouts = rng.normal(size=(3, 6, 2))
    theta = stack.theta
    assert theta.shape == (3, sum(a.size for a in layer_arrays(members[0])))
    out, caches = nn.forward(stack, xs)
    nn.backward(stack, caches, gouts, stack.grads)
    flat = stack.grad
    grad_in = nn.backward(stack, caches, gouts)
    for k, layers in enumerate(members):
        out_k, caches_k = nn.forward(layers, xs[k])
        flat_k, grad_in_k = flat_backward(layers, caches_k, gouts[k])
        assert np.array_equal(out[k], out_k)
        assert np.array_equal(grad_in[k], grad_in_k)
        assert np.array_equal(flat[k], flat_k)
        assert np.array_equal(theta[k], np.concatenate(
            [a.ravel() for a in layer_arrays(layers)]))


def test_stacked_pack_rows_are_member_layouts():
    rng = np.random.default_rng(11)
    _, stack = stacked_mlp(rng, 2, [3, 4, 2], "tanh", "identity")
    theta = stack.theta
    for a in layer_arrays(stack):
        assert np.shares_memory(theta, a)
    theta[1] = 0.0
    assert all(not w[1].any() and w[0].any() for w in stack.weights)


def test_dense_rejects_theta_of_wrong_length():
    # a 2 x 4 layer has 8 weights and 2 biases per member
    with pytest.raises(DimensionError):
        nn.Dense([4, 2], ["identity"], np.zeros((3, 9)))


def test_carve_rejects_a_vector_of_the_wrong_size():
    with pytest.raises(DimensionError):
        nn.carve(np.zeros(7), [(2, 3)])


def test_numerical_gradient_of_quadratic():
    w = np.array([2.0, -1.0])
    g = numerical_gradient(lambda: float(np.sum(w**2)), w)
    assert np.allclose(g, [4.0, -2.0], atol=1e-6)


@pytest.mark.parametrize("acts", [("relu", "identity"), ("leaky_relu", "sigmoid"),
                                  ("tanh", "tanh")])
def test_float32_network_keeps_float32_through_forward_backward_and_adam(acts):
    rng = np.random.default_rng(5)
    built = nn.build_mlp(rng, 4, [6], 3, *acts)
    net = nn.Dense(built.sizes, built.activations, built.theta.astype(np.float32))
    # float64 input and output gradient, as a caller may hand them in
    out, caches = nn.forward(net, rng.normal(size=(5, 4)))
    grad_out = rng.normal(size=out.shape)
    assert out.dtype == np.float32
    assert all(a.dtype == z.dtype == np.float32 for a, z in caches)
    assert nn.backward(net, caches, grad_out).dtype == np.float32
    assert nn.backward(net, caches, grad_out, net.grads) is None
    assert net.grad.dtype == np.float32 and net.grad.any()
    state = AdamState(learning_rate=0.01)
    gradient = net.grad.copy()
    adam_step(state, net.theta, net.grad)
    for array in (net.theta, net.grad, state.first_moment, state.second_moment):
        assert array.dtype == np.float32
    # the step ran inside the float32 gradient, not in a float64 copy of it
    assert not np.array_equal(net.grad, gradient)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("logit", [-100.0, 100.0])
def test_float32_sigmoid_of_a_large_logit_neither_overflows_nor_leaves_0_1(logit):
    net = nn.Dense([1, 1], ["sigmoid"], np.array([logit, 0.0], dtype=np.float32))
    out, caches = nn.forward(net, [[1.0]])
    assert out.dtype == np.float32 and 0.0 <= out[0, 0] <= 1.0
    grad_in = nn.backward(net, caches, np.ones_like(out))
    assert nn.backward(net, caches, np.ones_like(out), net.grads) is None
    assert np.isfinite(grad_in).all() and np.isfinite(net.grad).all()
