import numpy as np
import pytest

from sentigan import nn
from sentigan.errors import DimensionError, UsageError
from sentigan.gradcheck import finite_difference_check, numerical_gradient, relative_error


def identity_layer():
    return nn.DenseLayer(np.eye(2), np.zeros(2), "identity")


def test_dense_forward_identity():
    out, _ = nn.forward([identity_layer()], [3.0, -1.0])
    assert np.allclose(out, [3.0, -1.0])


def test_dense_forward_relu_clamps():
    layer = nn.DenseLayer(np.eye(2), np.zeros(2), "relu")
    assert np.allclose(nn.forward([layer], [3.0, -1.0])[0], [3.0, 0.0])


def test_leaky_relu_slope():
    layer = nn.DenseLayer(np.array([[1.0]]), np.zeros(1), "leaky_relu")
    assert np.allclose(nn.forward([layer], [-2.0])[0], [-0.02])


def test_dense_forward_dimension_mismatch():
    with pytest.raises(DimensionError) as e:
        nn.forward([identity_layer()], [1.0, 2.0, 3.0])
    assert "2" in str(e.value) and "3" in str(e.value)


def test_backward_hand_chain_rule():
    # single identity layer, squared loss: d/dw (wx - y)^2 = 2(wx - y)x
    layer = nn.DenseLayer(np.array([[1.0]]), np.zeros(1), "identity")
    out, caches = nn.forward([layer], np.array([2.0]))
    grad_out = 2.0 * (out - 0.0)
    grads, _ = nn.backward([layer], caches, grad_out)
    assert np.allclose(grads[0][0], [[8.0]])


def test_backward_zero_loss_gradient():
    rng = np.random.default_rng(0)
    layers = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    out, caches = nn.forward(layers, rng.normal(size=3))
    grads, gin = nn.backward(layers, caches, np.zeros_like(out))
    for dw, db in grads:
        assert not dw.any() and not db.any()
    assert not gin.any()


def test_backward_without_forward_cache_is_usage_error():
    layers = [identity_layer()]
    with pytest.raises(UsageError):
        nn.backward(layers, [], np.zeros(2))


@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    layers = nn.build_mlp(rng, 5, [6], 3, "tanh", "identity")
    x = rng.normal(size=5)
    target = rng.normal(size=3)
    report = finite_difference_check(layers, x, target, tolerance=1e-4, h=1e-5)
    assert report.passed, f"max rel err {report.max_rel_err}"


def kink_free_check(act, seed):
    # resample until no pre-activation sits within h of a relu kink, where
    # central differences are invalid
    rng = np.random.default_rng(seed)
    for _ in range(50):
        layers = nn.build_mlp(rng, 4, [5, 5], 2, act, act)
        x = rng.normal(size=4)
        target = rng.normal(size=2)
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
    report = finite_difference_check(layers, rng.normal(size=4), rng.normal(size=2))
    assert not report.passed


def test_linear_net_gradients_near_exact():
    rng = np.random.default_rng(3)
    layers = [nn.init_layer(rng, 4, 3, "identity")]
    report = finite_difference_check(layers, rng.normal(size=4), rng.normal(size=3))
    assert report.max_rel_err < 1e-8


def test_saturated_sigmoid_flagged_not_failed():
    layer = nn.DenseLayer(np.array([[50.0]]), np.zeros(1), "sigmoid")
    report = finite_difference_check([layer], np.array([1.0]), np.array([0.0]))
    assert report.saturated_layers == [0]
    assert report.passed


def test_batched_backward_matches_sum_of_samples():
    rng = np.random.default_rng(7)
    layers = nn.build_mlp(rng, 3, [4], 2, "tanh", "identity")
    xs = rng.normal(size=(6, 3))
    gouts = rng.normal(size=(6, 2))
    out_b, caches_b = nn.forward(layers, xs)
    grads_b, _ = nn.backward(layers, caches_b, gouts)
    acc = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]
    for x, g in zip(xs, gouts):
        _, caches = nn.forward(layers, x)
        grads, _ = nn.backward(layers, caches, g)
        for i, (dw, db) in enumerate(grads):
            acc[i] = (acc[i][0] + dw, acc[i][1] + db)
    for (dw_b, db_b), (dw, db) in zip(grads_b, acc):
        assert relative_error(dw_b, dw) < 1e-9
        assert relative_error(db_b, db) < 1e-9


def test_numerical_gradient_of_quadratic():
    w = np.array([2.0, -1.0])
    g = numerical_gradient(lambda: float(np.sum(w**2)), [w])
    assert np.allclose(g[0], [4.0, -2.0], atol=1e-6)
