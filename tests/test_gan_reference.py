"""GAN training against a reference: the activations, their derivatives,
the score clipping, the batch mean and both losses as the harness wrote them
before its training step formed tanh' and sigmoid' from each layer's cached
output, leaky relu as a maximum and its clipping as a minimum of a maximum.

The reference keeps its own copy of every function the leaner step replaced,
and a forward, backward and training step built on them; it shares
`gan._setup` and `adam_step`, which the leaner step left alone. Each
activation in float32 and float64, and `gan.train` on a float32 lockstep
group and on one member at the default widths, must give the reference's
values bit for bit (their bytes, so -0.0 against 0.0 and a NaN's sign
count). `gan`'s losses take scores already clipped, so they are given what
`gan._clip_scores` makes of the scores the reference's losses clip."""

import numpy as np
import pytest

from sentigan import gan, nn
from sentigan.data import Windows
from sentigan.gan import N_FEATURES
from sentigan.nn import LEAKY_SLOPE
from sentigan.optim import AdamState, adam_step

LOG_EPS = gan.LOG_EPS


# ---------------------------------------------------------------- reference


def activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z >= 0.0, z, LEAKY_SLOPE * z)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return np.exp(-np.logaddexp(0.0, -z))
    if name == "identity":
        return z
    raise ValueError(name)


def activate_grad(name, z):
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "leaky_relu":
        return np.where(z >= 0.0, 1.0, LEAKY_SLOPE).astype(z.dtype, copy=False)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "sigmoid":
        s = activate(name, z)
        return s * (1.0 - s)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(name)


def _batch_mean(x):
    return np.mean(x, axis=(-2, -1))


def _clip_scores(scores):
    return np.clip(scores, LOG_EPS, 1.0 - max(LOG_EPS, np.finfo(scores.dtype).epsneg))


def d_loss_value(real_scores, fake_scores):
    r = _clip_scores(real_scores)
    f = _clip_scores(fake_scores)
    return -_batch_mean(np.log(r)) - _batch_mean(np.log(1.0 - f))


def g_loss_value(fake_scores):
    return -_batch_mean(np.log(_clip_scores(fake_scores)))


def ref_forward(net, x):
    a = np.asarray(x, dtype=net.theta.dtype)
    caches = []
    for w, b, activation in zip(net.weights, net.biases, net.activations):
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        caches.append((a, z))
        a = activate(activation, z)
    return a, caches


def ref_backward(net, caches, grad_out, grads=None):
    g = np.asarray(grad_out, dtype=net.theta.dtype)
    for i in reversed(range(len(caches))):
        x_in, z = caches[i]
        gz = g * activate_grad(net.activations[i], z)
        if grads is not None:
            np.matmul(gz.swapaxes(-1, -2), x_in, out=grads[2 * i])
            gz.sum(axis=-2, out=grads[2 * i + 1])
            if i == 0:
                return None
        g = gz @ net.weights[i]
    return g


def ref_train_step(gen, disc, gen_in, targets, gen_adam, disc_adam):
    real_in = np.concatenate([targets, gen_in], axis=-1)
    fake, gen_caches = ref_forward(gen, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=-1)
    b = real_in.shape[-2]
    out, caches = ref_forward(disc, np.concatenate([real_in, fake_in], axis=-2))
    s = _clip_scores(out)
    grad_out = np.concatenate([-1.0 / (b * s[..., :b, :]), 1.0 / (b * (1.0 - s[..., b:, :]))],
                              axis=-2)
    ref_backward(disc, caches, grad_out, disc.grads)
    d_loss = d_loss_value(out[..., :b, :], out[..., b:, :])
    adam_step(disc_adam, disc.theta, disc.grad)
    score, disc_caches = ref_forward(disc, fake_in)
    s = _clip_scores(score)
    grad_fake = ref_backward(disc, disc_caches, -1.0 / (b * s))[..., :N_FEATURES]
    ref_backward(gen, gen_caches, grad_fake, gen.grads)
    g_loss = g_loss_value(score)
    adam_step(gen_adam, gen.theta, gen.grad)
    return d_loss, g_loss


def ref_train(members, schedule, seed):
    """The stacked generators' theta (K, P) and the losses (steps, 2, K)."""
    rng = np.random.default_rng(seed)
    gen, disc, _, gen_in, targets = gan._setup(members, rng, schedule)
    gen_adam = AdamState(learning_rate=gan.LEARNING_RATE)
    disc_adam = AdamState(learning_rate=gan.LEARNING_RATE)
    starts = range(0, gen_in.shape[1], schedule.batch_size)
    losses = np.empty((schedule.epochs * len(starts), 2, len(gen_in)))
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(schedule.epochs):
            for batch_index in rng.permutation(len(starts)):
                batch = slice(starts[batch_index], starts[batch_index] + schedule.batch_size)
                losses[step] = ref_train_step(gen, disc, gen_in[:, batch], targets[:, batch],
                                              gen_adam, disc_adam)
                step += 1
    return gen.theta, losses


# ---------------------------------------------------------------- checks


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def edge_inputs(dtype):
    """±0, the smallest subnormals, negatives whose 0.01·z underflows to -0,
    a saturated sigmoid (±100), ±1e30, the infinities and NaNs of either
    sign, then normal draws of several scales."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, -2 * tiny, -50 * tiny, -99 * tiny, -info.smallest_normal,
             100.0, -100.0, 1e30, -1e30, np.inf, -np.inf, np.nan, -np.nan]
    draws = np.random.default_rng(0).normal(size=400) * np.repeat([1e-3, 1.0, 10.0, 60.0], 100)
    return np.concatenate([np.array(edges, dtype=dtype), draws.astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", nn.ACTIVATIONS)
def test_activation_and_its_derivative_equal_the_reference_bitwise(name, dtype):
    z = edge_inputs(dtype)
    rng = np.random.default_rng(1)
    g = np.concatenate([[1.0, -1.0, 0.0, -0.0, np.inf, np.nan],
                        rng.normal(size=len(z) - 6)]).astype(dtype)
    with np.errstate(all="ignore"):
        function, derivative = nn.ACTIVATIONS[name]
        a = function(z)
        assert same_bytes(a, activate(name, z))
        assert same_bytes(g * derivative(z, a), g * activate_grad(name, z))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_equal_the_reference_bitwise(dtype):
    rng = np.random.default_rng(2)
    scores = rng.uniform(-0.5, 1.5, size=(3, 7, 1))
    scores[0, :6, 0] = [0.0, 1.0, 1e-13, 1 - 1e-13, np.finfo(dtype).epsneg, np.nan]
    real, fake = scores.astype(dtype), scores[:, ::-1].astype(dtype)
    with np.errstate(invalid="ignore"):
        for r, f in ((real, fake), (real[0], fake[0]), (real[1:], fake[1:])):
            assert same_bytes(gan._clip_scores(r), _clip_scores(r))
            clipped_r, clipped_f = gan._clip_scores(r), gan._clip_scores(f)
            assert same_bytes(gan.d_loss_value(clipped_r, clipped_f), d_loss_value(r, f))
            assert same_bytes(gan.g_loss_value(clipped_f), g_loss_value(f))


def members_of(k, n, window_length, seed):
    """k assets' worth of n random-walk windows each."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(k):
        prices = 100.0 + np.cumsum(rng.normal(size=(n + window_length, N_FEATURES)), axis=0)
        histories = np.stack([prices[i : i + window_length] for i in range(n)])
        members.append(Windows(histories, rng.uniform(-1.0, 1.0, n), prices[window_length:]))
    return members


@pytest.mark.parametrize("k, n, schedule", [
    # a lockstep group whose last batch holds 3 of 5 rows
    (3, 23, gan.GanSchedule(batch_size=5, epochs=8, gen_hidden=(16, 8), disc_hidden=(8, 4))),
    # one member at batch 64 and the default widths, its last batch 22 rows
    (1, 150, gan.GanSchedule(batch_size=64, epochs=3)),
])
def test_train_equals_the_reference_loop_bitwise(k, n, schedule):
    members = members_of(k, n, window_length=10, seed=k)
    trained = gan.train(members, schedule, seed=7)
    theta, losses = ref_train(members, schedule, seed=7)
    assert theta.dtype == np.float32
    for member, (generator, log) in enumerate(trained):
        assert same_bytes(generator.theta, theta[member]), member
        assert same_bytes(log, losses[..., member]), member
