import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import aligned_from_close, holdout_split, scaler_over
from gradcheck import numerical_gradient, relative_error
from sentigan import gan, lstm, nn
from sentigan.data import CLOSE_COLUMN, Windows, make_windows
from sentigan.errors import DataError, DimensionError, TrainingError, UsageError
from sentigan.eval import evaluate
from sentigan.gan import (
    GanSchedule,
    Generator,
    build_discriminator,
    build_generator,
    d_loss_value,
    g_loss_value,
)
from sentigan.lstm import TrainSchedule
from sentigan.nn import backward, forward
from sentigan.optim import AdamState, adam_step

# one hidden layer of 8 units in each network
SMALL = dict(gen_hidden=(8,), disc_hidden=(8,))


def scaled_windows(rng, length=6, count=1):
    """`count` random windows on the signed scale, drawn window by window."""
    draws = [(rng.uniform(-0.9, 0.9, size=(length, 6)), rng.uniform(-1, 1),
              rng.uniform(-0.9, 0.9, size=6)) for _ in range(count)]
    histories, sentiments, targets = (np.array(a) for a in zip(*draws))
    return Windows(histories, sentiments, targets)


def zero_net(net):
    net.theta[...] = 0.0
    return net


def generate(g, windows):
    """The generator's scaled next-day observation (6,) for the first of
    `windows`, scaled."""
    out, _ = forward(g, gan._gen_inputs(windows.histories, windows.sentiments))
    return out[0]


def disc_input(candidate, windows):
    """The discriminator's input row for a candidate and the first of `windows`."""
    return np.concatenate([candidate, windows.histories[0].ravel(),
                           windows.sentiments[:1]])[None, :]


def score(d, candidate, window):
    """The discriminator's plausibility of a candidate next-day observation."""
    out, _ = forward(d, disc_input(candidate, window))
    return float(out[0, 0])


# ---------------------------------------------------------------- parameters


def test_every_layer_array_is_a_view_of_theta():
    rng = np.random.default_rng(0)
    g = build_generator(rng, 4, hidden=(8, 5))
    d = build_discriminator(rng, 4, hidden=(6,))
    # a trained generator holds a float32 theta, as gan.train returns it
    trained = Generator(g.sizes, g.activations, g.theta.astype(gan.DTYPE), scaler_over())
    nets = [g, d, Generator.from_dict(trained.to_dict())]
    for net in nets:
        arrays = [*net.weights, *net.biases]
        assert net.theta.ndim == 1
        assert net.theta.size == sum(a.size for a in arrays)
        for a in arrays:
            assert np.shares_memory(net.theta, a)
    assert np.array_equal(nets[2].theta, trained.theta)


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("length", [3, 12, 30])
def test_generator_output_width_independent_of_window_length(length):
    rng = np.random.default_rng(0)
    g = build_generator(rng, length, hidden=(8,))
    out = generate(g, scaled_windows(rng, length))
    assert out.shape == (6,)


def test_generator_zero_weights_outputs_tanh_bias():
    rng = np.random.default_rng(1)
    g = zero_net(build_generator(rng, 4, hidden=(5,)))
    g.biases[-1][...] = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
    out = generate(g, scaled_windows(rng, 4))
    assert np.allclose(out, np.tanh(g.biases[-1]))


def test_generator_deterministic_without_noise():
    rng = np.random.default_rng(2)
    g = build_generator(rng, 5, hidden=(8,))
    w = scaled_windows(rng, 5)
    assert np.array_equal(generate(g, w), generate(g, w))


def test_generator_outputs_in_open_interval():
    rng = np.random.default_rng(5)
    g = build_generator(rng, 6, hidden=(16, 8))
    for _ in range(20):
        out = generate(g, scaled_windows(rng, 6))
        assert np.all(np.abs(out) < 1.0)


# ---------------------------------------------------------------- discriminator


def test_discriminator_zero_weights_scores_half():
    rng = np.random.default_rng(6)
    d = zero_net(build_discriminator(rng, 4, hidden=(5,)))
    assert score(d, np.zeros(6), scaled_windows(rng, 4)) == 0.5


def test_discriminator_score_in_open_interval():
    rng = np.random.default_rng(7)
    d = build_discriminator(rng, 5, hidden=(16, 8))
    for _ in range(20):
        s = score(d, rng.uniform(-0.9, 0.9, 6), scaled_windows(rng, 5))
        assert 0.0 < s < 1.0


def test_discriminator_dimension_mismatch():
    rng = np.random.default_rng(8)
    d = build_discriminator(rng, 5, hidden=(4,))
    with pytest.raises(DimensionError):
        score(d, np.zeros(4), scaled_windows(rng, 5))
    with pytest.raises(DimensionError):
        score(d, np.zeros(6), scaled_windows(rng, 7))


def test_discriminator_candidate_gradient_matches_fd():
    rng = np.random.default_rng(9)
    d = build_discriminator(rng, 3, hidden=(6,))
    w = scaled_windows(rng, 3)
    candidate = rng.uniform(-0.5, 0.5, 6)

    out, caches = forward(d, disc_input(candidate, w))
    analytic = backward(d, caches, np.ones_like(out))[0, :6]

    numeric = numerical_gradient(lambda: score(d, candidate, w), candidate, h=1e-6)
    assert relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------- losses


def test_perfect_discriminator_loss_limits():
    # D scoring ~1 on real and ~0 on fake has near-zero loss; the generator
    # loss blows up in that regime
    real = np.array([[0.999999], [0.999999]])
    fake = np.array([[1e-6], [1e-6]])
    assert d_loss_value(real, fake) == pytest.approx(0.0, abs=1e-4)
    assert g_loss_value(fake) > 10.0


def test_saturated_float32_discriminator_gives_finite_gradients():
    # a discriminator that scores every row exactly 1.0 in float32, where
    # 1 - LOG_EPS rounds to 1.0 and a float64 clip bound would divide by zero
    g, d, batch = make_step_fixture()
    g, d = (nn.Dense(net.sizes, net.activations, net.theta.astype(np.float32)) for net in (g, d))
    d.weights[-1][...] = 0.0
    d.biases[-1][...] = 50.0
    gen_in, real_in, fake, gen_caches, fake_in = step_inputs(g, batch)
    assert np.all(forward(d, fake_in)[0] == np.float32(1.0))
    d_loss = gan._discriminator_grads(d, real_in.astype(np.float32), fake_in)
    assert np.isfinite(d_loss) and np.isfinite(d.grad).all()
    g_loss = gan._generator_grads(g, d, fake_in, gen_caches)
    assert np.isfinite(g_loss) and np.isfinite(g.grad).all()


def test_adversarial_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    length = 3
    g = build_generator(rng, length, hidden=(4,))
    d = build_discriminator(rng, length, hidden=(4,))
    batch = scaled_windows(rng, length, count=2)
    gen_in = gan._gen_inputs(batch.histories, batch.sentiments)
    real_in = np.concatenate([batch.targets, gen_in], axis=1)

    def d_loss():
        fake, _ = forward(g, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)
        real_scores, _ = forward(d, real_in)
        fake_scores, _ = forward(d, fake_in)
        return d_loss_value(real_scores, fake_scores)

    def g_loss():
        fake, _ = forward(g, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)
        scores, _ = forward(d, fake_in)
        return g_loss_value(scores)

    fake, gen_caches = forward(g, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=1)
    gan._discriminator_grads(d, real_in, fake_in)
    numeric_d = numerical_gradient(d_loss, d.theta, h=1e-6)
    worst_d = relative_error(d.grad, numeric_d)
    assert worst_d < 1e-4, worst_d

    gan._generator_grads(g, d, fake_in, gen_caches)
    numeric_g = numerical_gradient(g_loss, g.theta, h=1e-6)
    worst_g = relative_error(g.grad, numeric_g)
    assert worst_g < 1e-4, worst_g


# ---------------------------------------------------------------- train_step


def make_step_fixture(seed=11, length=4, batch=5):
    rng = np.random.default_rng(seed)
    g = build_generator(rng, length, hidden=(8,))
    d = build_discriminator(rng, length, hidden=(8,))
    return g, d, scaled_windows(rng, length, count=batch)


def step_inputs(g, batch):
    """(gen_in, real_in, fake, gen_caches, fake_in) as train_step builds them."""
    gen_in = gan._gen_inputs(batch.histories, batch.sentiments)
    real_in = np.concatenate([batch.targets, gen_in], axis=1)
    fake, gen_caches = forward(g, gen_in)
    return gen_in, real_in, fake, gen_caches, np.concatenate([fake, gen_in], axis=1)


def run_step(g, d, batch, gen_adam=None, disc_adam=None):
    gen_in = step_inputs(g, batch)[0]
    return gan.train_step(
        g, d, gen_in, batch.targets,
        gen_adam or AdamState(learning_rate=gan.LEARNING_RATE),
        disc_adam or AdamState(learning_rate=gan.LEARNING_RATE),
    )


def full_backward(net, caches, grad_out, grads):
    """Reference reverse pass that forms every gradient from every call,
    the first layer's input product included."""
    g = grad_out
    for i in reversed(range(len(caches))):
        x_in, z = caches[i]
        gz = g * nn.activate_grad(net.activations[i], z)
        np.matmul(gz.swapaxes(-1, -2), x_in, out=grads[2 * i])
        gz.sum(axis=-2, out=grads[2 * i + 1])
        g = gz @ net.weights[i]
    return g


def twin(net):
    """A network on net's parameters, with a gradient of its own."""
    return nn.Dense(net.sizes, net.activations, net.theta)


def test_generator_update_gradients_are_unchanged_bitwise():
    # the discriminator pass of the generator update still returns its input
    # gradient, and the generator gradient built on it is the same
    g, d, batch = make_step_fixture()
    g, d = g.stacked(2), d.stacked(2)
    gen_in = gan._gen_inputs(batch.histories, batch.sentiments)
    gen_in = np.stack([gen_in, gen_in[::-1]])
    fake, gen_caches = forward(g, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=-1)
    gan._generator_grads(g, d, fake_in, gen_caches)

    score, disc_caches = forward(d, fake_in)
    grad_out = -1.0 / (fake_in.shape[-2] * np.clip(score, gan.LOG_EPS, 1.0 - gan.LOG_EPS))
    grad_in = full_backward(d, disc_caches, grad_out, twin(d).grads)
    assert np.array_equal(backward(d, disc_caches, grad_out), grad_in)
    expected = twin(g)
    full_backward(g, gen_caches, grad_in[..., :6], expected.grads)
    assert np.array_equal(g.grad, expected.grad)


def test_zero_learning_rate_reports_losses_without_moving():
    g, d, batch = make_step_fixture()
    before = [g.theta.copy(), d.theta.copy()]
    d_loss, g_loss = run_step(g, d, batch, AdamState(learning_rate=0.0),
                              AdamState(learning_rate=0.0))
    assert np.isfinite(d_loss) and np.isfinite(g_loss)
    assert np.array_equal(g.theta, before[0])
    assert np.array_equal(d.theta, before[1])


def test_step_count_bookkeeping():
    g, d, batch = make_step_fixture()
    gen_adam = AdamState(learning_rate=gan.LEARNING_RATE)
    disc_adam = AdamState(learning_rate=gan.LEARNING_RATE)
    run_step(g, d, batch, gen_adam, disc_adam)
    assert disc_adam.step_count == 1
    assert gen_adam.step_count == 1


def test_train_step_runs_each_network_forward_once_per_job(monkeypatch):
    # 1 generator pass, 1 stacked discriminator pass, 1 discriminator pass
    # in the generator update
    g, d, batch = make_step_fixture()
    calls = []

    def counted(layers, x):
        calls.append(len(x))
        return forward(layers, x)

    monkeypatch.setattr(gan, "forward", counted)
    run_step(g, d, batch)
    assert calls == [5, 10, 5]


def stacked_step_fixture(k, seed=13, length=4, batch=5):
    """A stacked pair of k members and a (k, batch, ...) scaled batch."""
    g, d, _ = make_step_fixture(seed, length, batch)
    rng = np.random.default_rng(seed)
    gen_in = rng.uniform(-0.9, 0.9, size=(k, batch, length * 6 + 1))
    targets = rng.uniform(-0.9, 0.9, size=(k, batch, 6))
    return g.stacked(k), d.stacked(k), gen_in, targets


def test_seven_member_step_makes_three_forward_calls(monkeypatch):
    g, d, gen_in, targets = stacked_step_fixture(7)
    calls = []

    def counted(layers, x):
        calls.append(x.shape[:2])
        return forward(layers, x)

    monkeypatch.setattr(gan, "forward", counted)
    d_loss, g_loss = gan.train_step(g, d, gen_in, targets, AdamState(learning_rate=0.01),
                                    AdamState(learning_rate=0.01))
    assert calls == [(7, 5), (7, 10), (7, 5)]
    assert d_loss.shape == g_loss.shape == (7,)


def test_train_step_carves_no_gradient_views(monkeypatch):
    # each network's gradient views are carved once, with the network
    g, d, gen_in, targets = stacked_step_fixture(3)

    def no_carve(*args):
        raise AssertionError("carve called inside train_step")

    monkeypatch.setattr(nn, "carve", no_carve)
    for _ in range(2):
        gan.train_step(g, d, gen_in, targets, AdamState(learning_rate=0.01),
                       AdamState(learning_rate=0.01))


def test_stacked_discriminator_pass_equals_two_separate_passes():
    g, d, batch = make_step_fixture()
    _, real_in, _, _, fake_in = step_inputs(g, batch)
    b = len(real_in)
    loss = gan._discriminator_grads(d, real_in, fake_in)

    def flat_grad(x, grad_out_of):
        out, caches = forward(d, x)
        flat = twin(d)
        backward(d, caches, grad_out_of(out), flat.grads)
        return out, flat.grad

    real_out, g_real = flat_grad(real_in, lambda out: -1.0 / (b * out))
    fake_out, g_fake = flat_grad(fake_in, lambda out: 1.0 / (b * (1.0 - out)))
    separate = g_real + g_fake
    assert np.max(np.abs(d.grad - separate)) <= 1e-12 * np.max(np.abs(separate))
    assert loss == pytest.approx(d_loss_value(real_out, fake_out), rel=1e-12)


def test_updates_do_not_cross_networks():
    g, d, batch = make_step_fixture()
    gen_in, real_in, fake, gen_caches, fake_in = step_inputs(g, batch)

    gen_before = g.theta.copy()
    gan._discriminator_grads(d, real_in, fake_in)
    adam_step(AdamState(learning_rate=0.01), d.theta, d.grad)
    assert np.array_equal(g.theta, gen_before)

    disc_before = [d.theta.copy(), d.grad.copy()]
    gan._generator_grads(g, d, fake_in, gen_caches)
    adam_step(AdamState(learning_rate=0.01), g.theta, g.grad)
    assert np.array_equal(d.theta, disc_before[0])
    assert np.array_equal(d.grad, disc_before[1])


# ---------------------------------------------------------------- train


def jumpy_aligned(seed, n=160, phi=0.9, sigma=1.0, jump=3.0):
    """Mean-reverting close path with sentiment-triggered next-day jumps."""
    rng = np.random.default_rng(seed)
    sentiment = np.where(rng.uniform(size=n) < 0.5, 0.8, -0.8)
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + rng.normal(0, sigma)
    jumps = np.zeros(n)
    jumps[1:] = jump * sigma * (sentiment[:-1] > 0.5)
    return aligned_from_close(100.0 + z + jumps, sentiment=sentiment)


def test_train_zero_epochs_returns_initialized_nets():
    windows = make_windows(jumpy_aligned(0), 5)
    [(g, log)] = gan.train([windows], GanSchedule(epochs=0, **SMALL), seed=0)
    assert log.shape == (0, 2)
    assert g.scaler is not None
    assert isinstance(g, Generator)


def test_train_determinism():
    windows = make_windows(jumpy_aligned(1), 5)[:40]
    schedule = GanSchedule(epochs=2, **SMALL)
    [(g1, log1)] = gan.train([windows], schedule, seed=3)
    [(g2, log2)] = gan.train([windows], schedule, seed=3)
    assert g1.theta.dtype == np.float32
    assert np.array_equal(g1.theta, g2.theta)
    assert np.array_equal(log1, log2)


def test_train_log_schema():
    windows = make_windows(jumpy_aligned(2), 5)[:20]
    [(_, log)] = gan.train([windows], GanSchedule(epochs=2, **SMALL), seed=0)
    assert log.shape == (2 * 4, 2)  # epochs x batches of 5, (d_loss, g_loss)
    assert np.isfinite(log).all()


def test_conditioning_sensitivity_after_training():
    aligned = jumpy_aligned(4, n=200)
    windows = make_windows(aligned, 5)
    train_part, test_part = holdout_split(windows)
    schedule = GanSchedule(epochs=30, gen_hidden=(16,), disc_hidden=(16,))
    [(g, _)] = gan.train([train_part], schedule, seed=0)
    flipped = replace(test_part, sentiments=-test_part.sentiments)
    deltas = np.abs(gan.predict(g, test_part) - gan.predict(g, flipped))
    assert np.mean(deltas) > 0.0


# ---------------------------------------------------------------- lockstep


def lockstep_members(n_windows=37):
    """Two members' training windows, of one length, from different paths."""
    return [make_windows(jumpy_aligned(seed, n=n_windows + 5), 5) for seed in (20, 21)]


@pytest.mark.parametrize("schedule", [
    GanSchedule(epochs=3, batch_size=5, gen_hidden=(8, 6), disc_hidden=(7,)),
    GanSchedule(epochs=2, batch_size=8, gen_hidden=(8, 6), disc_hidden=(7,)),
], ids=["d_steps=1", "batch=8"])
def test_lockstep_members_equal_solo_runs(schedule):
    # 37 windows: the last batch of every epoch is short
    members = lockstep_members()
    together = gan.train(members, schedule, seed=4)
    alone = [gan.train([m], schedule, seed=4)[0] for m in members]
    assert len(together) == 2
    for (g, log), (g1, log1) in zip(together, alone):
        assert np.array_equal(g.theta, g1.theta)
        assert np.array_equal(log, log1)
        assert g.to_dict() == g1.to_dict()
    assert not np.array_equal(together[0][0].theta, together[1][0].theta)


def test_lockstep_accepts_an_iterator_of_members():
    members = lockstep_members()
    schedule = GanSchedule(epochs=1, **SMALL)
    from_list = gan.train(members, schedule, seed=0)
    from_iter = gan.train(iter(members), schedule, seed=0)
    for (g, log), (g1, log1) in zip(from_list, from_iter):
        assert np.array_equal(g.theta, g1.theta) and np.array_equal(log, log1)


def test_lockstep_rejects_members_of_different_lengths():
    a, b = lockstep_members()
    with pytest.raises(UsageError):
        gan.train([a, b[:-1]], GanSchedule(epochs=1, **SMALL), seed=0)
    with pytest.raises(UsageError):
        gan.train([], GanSchedule(epochs=1), seed=0)


def test_diverging_member_is_named(monkeypatch):
    # a non-finite gradient in member 1 only, from the fourth step on
    members = lockstep_members()
    passes = []

    def diverging(layers, caches, grad_out, grads=None):
        grad_in = backward(layers, caches, grad_out, grads)
        if grads is not None:
            passes.append(1)
            if len(passes) > 6:
                grads[0][1, 0, 0] = np.nan
        return grad_in

    monkeypatch.setattr(gan, "backward", diverging)
    with pytest.raises(TrainingError) as e:
        gan.train(members, GanSchedule(epochs=2, **SMALL), seed=0)
    assert e.value.member == 1
    assert "member 1" in str(e.value)


def test_member_with_unscalable_data_is_named():
    # a NaN sentiment, which no aligned dataset can hold, reaches the
    # gradient, whose finite check names the member
    a, b = lockstep_members()
    sentiments = b.sentiments.copy()
    sentiments[3] = np.nan
    b = replace(b, sentiments=sentiments)
    with pytest.raises(TrainingError) as e:
        gan.train([a, b], GanSchedule(epochs=1, **SMALL), seed=0)
    assert e.value.member == 1


@pytest.mark.parametrize("model", ["lstm", "gan"])
def test_divergence_is_a_training_error_under_warnings_as_errors(model, monkeypatch):
    # the suite makes RuntimeWarning an error: an overflow on the way to a
    # non-finite loss or gradient must not stop training before that check
    rng = np.random.default_rng(3)
    windows = make_windows(aligned_from_close(100.0 + np.cumsum(rng.normal(size=120))), 20)
    monkeypatch.setattr(lstm if model == "lstm" else gan, "LEARNING_RATE", 1e20)
    monkeypatch.setattr(lstm, "HIDDEN_SIZE", 8)
    monkeypatch.setattr(lstm, "BATCH_SIZE", 16)
    with pytest.raises(TrainingError) as e:
        if model == "lstm":
            lstm.train(windows, TrainSchedule(), seed=0)
        else:
            gan.train([windows], GanSchedule(**SMALL), seed=0)
    if model == "gan":
        assert e.value.member == 0


# ---------------------------------------------------------------- forecasting


def test_forecast_holdout_emits_20_causal_rows():
    aligned = jumpy_aligned(5, n=120)
    windows = make_windows(aligned, 6)
    train_part, _ = holdout_split(windows)
    [(g, _)] = gan.train([train_part], GanSchedule(epochs=1, **SMALL), seed=1)
    report = evaluate("gan", g, aligned, window_length=6)
    assert len(report.predicted) == 20
    assert report.dates == aligned.dates[-20:]
    closes = dict(zip(aligned.dates, aligned.features[:, CLOSE_COLUMN]))
    for day, actual in zip(report.dates, report.actual):
        assert actual == closes[day]


def test_scaler_round_trip_on_actuals():
    from sentigan.scaling import close_inverse, scaler_transform

    aligned = jumpy_aligned(6, n=120)
    windows = make_windows(aligned, 6)
    train_part, _ = holdout_split(windows)
    [(g, _)] = gan.train([train_part], GanSchedule(epochs=1, **SMALL), seed=1)
    closes = aligned.features[:100, CLOSE_COLUMN]
    unit = scaler_transform(g.scaler, aligned.features[:100])[:, CLOSE_COLUMN]
    assert np.allclose(close_inverse(g.scaler, unit), closes, atol=1e-9)


def test_predict_maps_the_tanh_output_back_to_the_close_range():
    # with zero weights every output unit is tanh(b) of its bias b, which
    # the GAN maps from [-1, 1] onto the fitted close range
    net = zero_net(build_generator(np.random.default_rng(13), 4, hidden=(8,)))
    net.biases[-1][...] = np.linspace(-0.9, 0.6, 6)
    scaler = scaler_over()
    scaler.per_feature_min[CLOSE_COLUMN], scaler.per_feature_max[CLOSE_COLUMN] = 90.0, 130.0
    g = Generator(net.sizes, net.activations, net.theta, scaler)
    lo, hi, b = 90.0, 130.0, net.biases[-1][CLOSE_COLUMN]
    expected = lo + (np.tanh(b) + 1.0) / 2.0 * (hi - lo)
    windows = scaled_windows(np.random.default_rng(14), length=4, count=3)
    assert np.array_equal(gan.predict(g, windows), np.full(3, expected))


def test_building_a_generator_without_a_scaler_is_refused():
    net = build_generator(np.random.default_rng(12), 4, hidden=(8,))
    with pytest.raises(TypeError, match="scaler"):
        Generator(net.sizes, net.activations, net.theta)
    g = Generator(net.sizes, net.activations, net.theta, scaler_over())
    with pytest.raises(DataError, match="no fitted scaler"):
        Generator.from_dict({**g.to_dict(), "scaler": None})


def trained_generator(seed=9):
    aligned = jumpy_aligned(seed, n=100)
    windows = make_windows(aligned, 5)
    train_part, holdout = holdout_split(windows)
    [(g, _)] = gan.train([train_part], GanSchedule(epochs=2, **SMALL), seed=2)
    return g, holdout


def test_batched_predict_equals_one_window_calls():
    # batched products may round differently from one-row ones, in the last
    # bit of the generator's dtype: float32 as trained, float64 as built
    trained, holdout = trained_generator()
    for dtype, tolerance in ((np.float32, np.finfo(np.float32).eps), (np.float64, 1e-15)):
        g = Generator(trained.sizes, trained.activations, trained.theta.astype(dtype),
                      trained.scaler)
        batched = gan.predict(g, holdout)
        alone = np.array([gan.predict(g, holdout[i : i + 1])[0] for i in range(len(holdout))])
        assert batched.shape == (20,)
        assert np.max(np.abs(batched - alone) / np.abs(alone)) <= tolerance


def test_predict_saturates_context_outside_the_fitted_range():
    # histories and sentiment beyond the train-fitted range are clipped to
    # its boundary, which the scaler maps to exactly -1 and 1
    g, holdout = trained_generator()
    low, high = g.scaler.per_feature_min, g.scaler.per_feature_max

    def windows(rows, sentiments):
        histories = np.repeat(np.array(rows)[:, None], g.window_length, axis=1)
        return replace(holdout[:2], histories=histories, sentiments=np.array(sentiments))

    at_boundary = gan.predict(g, windows([high, low], [1.0, -1.0]))
    beyond = gan.predict(g, windows([2 * high - low, 2 * low - high], [3.0, -3.0]))
    assert np.array_equal(beyond, at_boundary)
    assert at_boundary[0] != at_boundary[1]


# ---------------------------------------------------------------- serialization


def test_generator_json_round_trip():
    aligned = jumpy_aligned(7, n=100)
    windows = make_windows(aligned, 5)
    [(g, _)] = gan.train([windows[:-5]], GanSchedule(epochs=1, **SMALL), seed=2)
    # float32 values are exact as JSON floats and load back as float32
    g2 = Generator.from_dict(json.loads(json.dumps(g.to_dict())))
    assert np.array_equal(gan.predict(g2, windows[-5:]), gan.predict(g, windows[-5:]))
    assert g.theta.dtype == g2.theta.dtype == np.float32
    assert np.array_equal(g2.theta, g.theta)
    assert (g2.sizes, g2.activations) == (g.sizes, g.activations)


def test_generator_from_dict_ignores_legacy_noise_dim():
    # a key nothing reads, such as the removed noise input's size, is ignored
    aligned = jumpy_aligned(8, n=100)
    windows = make_windows(aligned, 5)
    [(g, _)] = gan.train([windows[:-5]], GanSchedule(epochs=1, **SMALL), seed=2)
    legacy = {**g.to_dict(), "noise_dim": 0}
    restored = Generator.from_dict(legacy)
    assert "noise_dim" not in restored.to_dict()
    assert restored.to_dict() == g.to_dict()
    assert np.array_equal(gan.predict(restored, windows[-5:]), gan.predict(g, windows[-5:]))

