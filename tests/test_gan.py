from datetime import date

import numpy as np
import pytest

from conftest import aligned_from_close
from sentigan import gan
from sentigan.data import CLOSE_COLUMN, WindowSample, make_windows, split
from sentigan.errors import DataError, DimensionError, UsageError
from sentigan.eval import evaluate
from sentigan.gan import (
    Discriminator,
    GanSchedule,
    Generator,
    build_discriminator,
    build_generator,
    d_loss_value,
    g_loss_value,
)
from sentigan.gradcheck import numerical_gradient, relative_error
from sentigan.nn import backward, forward
from sentigan.optim import AdamState, adam_step


def scaled_window(rng, length=6, sentiment=None):
    return WindowSample(
        history=rng.uniform(-0.9, 0.9, size=(length, 6)),
        sentiment=float(rng.uniform(-1, 1)) if sentiment is None else sentiment,
        target=rng.uniform(-0.9, 0.9, size=6),
        target_date=date(2021, 1, 1),
    )


def zero_net(net):
    net.theta[...] = 0.0
    return net


# ---------------------------------------------------------------- parameters


def test_every_layer_array_is_a_view_of_theta():
    rng = np.random.default_rng(0)
    g = build_generator(rng, 4, hidden=(8, 5))
    d = build_discriminator(rng, 4, hidden=(6,))
    nets = [g, d, Generator.from_dict(g.to_dict()), Discriminator.from_dict(d.to_dict())]
    for net in nets:
        arrays = [a for layer in net.layers for a in (layer.weights, layer.bias)]
        assert net.theta.ndim == 1
        assert net.theta.size == sum(a.size for a in arrays)
        for a in arrays:
            assert np.shares_memory(net.theta, a)
    assert np.array_equal(nets[2].theta, g.theta)
    assert np.array_equal(nets[3].theta, d.theta)


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("length", [3, 12, 30])
def test_generator_output_width_independent_of_window_length(length):
    rng = np.random.default_rng(0)
    g = build_generator(rng, length, hidden=(8,))
    out = gan.generator_forward(g, scaled_window(rng, length))
    assert out.shape == (6,)


def test_generator_zero_weights_outputs_tanh_bias():
    rng = np.random.default_rng(1)
    g = zero_net(build_generator(rng, 4, hidden=(5,)))
    g.layers[-1].bias[...] = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
    out = gan.generator_forward(g, scaled_window(rng, 4))
    assert np.allclose(out, np.tanh(g.layers[-1].bias))


def test_generator_deterministic_without_noise():
    rng = np.random.default_rng(2)
    g = build_generator(rng, 5, hidden=(8,))
    w = scaled_window(rng, 5)
    assert np.array_equal(gan.generator_forward(g, w), gan.generator_forward(g, w))


def test_generator_scale_violation_errors():
    rng = np.random.default_rng(4)
    g = build_generator(rng, 4, hidden=(8,))
    w = scaled_window(rng, 4)
    w.history[0, 0] = 1.5
    with pytest.raises(DataError):
        gan.generator_forward(g, w)
    w.history[0, 0] = 0.0
    w = WindowSample(w.history, -1.2, w.target, w.target_date)
    with pytest.raises(DataError):
        gan.generator_forward(g, w)


def test_generator_outputs_in_open_interval():
    rng = np.random.default_rng(5)
    g = build_generator(rng, 6, hidden=(16, 8))
    for _ in range(20):
        out = gan.generator_forward(g, scaled_window(rng, 6))
        assert np.all(np.abs(out) < 1.0)


# ---------------------------------------------------------------- discriminator


def test_discriminator_zero_weights_scores_half():
    rng = np.random.default_rng(6)
    d = zero_net(build_discriminator(rng, 4, hidden=(5,)))
    score = gan.discriminator_forward(d, np.zeros(6), scaled_window(rng, 4))
    assert score == 0.5


def test_discriminator_score_in_open_interval():
    rng = np.random.default_rng(7)
    d = build_discriminator(rng, 5, hidden=(16, 8))
    for _ in range(20):
        s = gan.discriminator_forward(d, rng.uniform(-0.9, 0.9, 6), scaled_window(rng, 5))
        assert 0.0 < s < 1.0


def test_discriminator_dimension_mismatch():
    rng = np.random.default_rng(8)
    d = build_discriminator(rng, 5, hidden=(4,))
    with pytest.raises(DimensionError):
        gan.discriminator_forward(d, np.zeros(4), scaled_window(rng, 5))
    with pytest.raises(DimensionError):
        gan.discriminator_forward(d, np.zeros(6), scaled_window(rng, 7))


def test_discriminator_candidate_gradient_matches_fd():
    rng = np.random.default_rng(9)
    d = build_discriminator(rng, 3, hidden=(6,))
    w = scaled_window(rng, 3)
    candidate = rng.uniform(-0.5, 0.5, 6)

    x = np.concatenate([candidate, w.history.ravel(), [w.sentiment]])[None, :]
    out, caches = forward(d.layers, x)
    _, grad_in = backward(d.layers, caches, np.ones_like(out))
    analytic = grad_in[0, :6]

    numeric = numerical_gradient(
        lambda: gan.discriminator_forward(d, candidate, w), candidate, h=1e-6
    )
    assert relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------------- losses


def test_perfect_discriminator_loss_limits():
    # D scoring ~1 on real and ~0 on fake has near-zero loss; the generator
    # loss blows up in that regime
    real = np.array([0.999999, 0.999999])
    fake = np.array([1e-6, 1e-6])
    assert d_loss_value(real, fake) == pytest.approx(0.0, abs=1e-4)
    assert g_loss_value(fake) > 10.0


def test_adversarial_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    length = 3
    g = build_generator(rng, length, hidden=(4,))
    d = build_discriminator(rng, length, hidden=(4,))
    batch = [scaled_window(rng, length) for _ in range(2)]
    histories = np.stack([s.history for s in batch])
    sentiments = np.array([s.sentiment for s in batch])
    targets = np.stack([s.target for s in batch])
    gen_in = gan._gen_inputs(g, histories, sentiments)
    real_in = np.concatenate([targets, gen_in], axis=1)

    def d_loss():
        fake, _ = forward(g.layers, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)
        real_scores, _ = forward(d.layers, real_in)
        fake_scores, _ = forward(d.layers, fake_in)
        return d_loss_value(real_scores, fake_scores)

    def g_loss():
        fake, _ = forward(g.layers, gen_in)
        fake_in = np.concatenate([fake, gen_in], axis=1)
        scores, _ = forward(d.layers, fake_in)
        return g_loss_value(scores)

    fake, gen_caches = forward(g.layers, gen_in)
    fake_in = np.concatenate([fake, gen_in], axis=1)
    _, analytic_d = gan._discriminator_grads(d, real_in, fake_in)
    numeric_d = numerical_gradient(d_loss, d.theta, h=1e-6)
    worst_d = relative_error(analytic_d, numeric_d)
    assert worst_d < 1e-4, worst_d

    _, analytic_g = gan._generator_grads(g, d, gen_in, fake, gen_caches)
    numeric_g = numerical_gradient(g_loss, g.theta, h=1e-6)
    worst_g = relative_error(analytic_g, numeric_g)
    assert worst_g < 1e-4, worst_g


# ---------------------------------------------------------------- train_step


def make_step_fixture(seed=11, length=4, batch=5):
    rng = np.random.default_rng(seed)
    g = build_generator(rng, length, hidden=(8,))
    d = build_discriminator(rng, length, hidden=(8,))
    samples = [scaled_window(rng, length) for _ in range(batch)]
    return g, d, samples


def test_zero_learning_rate_reports_losses_without_moving():
    g, d, batch = make_step_fixture()
    before = [g.theta.copy(), d.theta.copy()]
    schedule = GanSchedule(learning_rate=0.0)
    d_loss, g_loss = gan.train_step(
        g, d, batch, AdamState(learning_rate=0.0), AdamState(learning_rate=0.0), schedule
    )
    assert np.isfinite(d_loss) and np.isfinite(g_loss)
    assert np.array_equal(g.theta, before[0])
    assert np.array_equal(d.theta, before[1])


def test_step_count_bookkeeping():
    g, d, batch = make_step_fixture()
    schedule = GanSchedule(d_steps=3)
    gen_adam = AdamState(learning_rate=schedule.learning_rate)
    disc_adam = AdamState(learning_rate=schedule.learning_rate)
    gan.train_step(g, d, batch, gen_adam, disc_adam, schedule)
    assert disc_adam.step_count == 3
    assert gen_adam.step_count == 1


def step_inputs(g, batch):
    """(gen_in, real_in, fake, gen_caches, fake_in) as train_step builds them."""
    histories = np.stack([s.history for s in batch])
    sentiments = np.array([s.sentiment for s in batch])
    targets = np.stack([s.target for s in batch])
    gen_in = gan._gen_inputs(g, histories, sentiments)
    real_in = np.concatenate([targets, gen_in], axis=1)
    fake, gen_caches = forward(g.layers, gen_in)
    return gen_in, real_in, fake, gen_caches, np.concatenate([fake, gen_in], axis=1)


def test_train_step_runs_each_network_forward_once_per_job(monkeypatch):
    # 1 generator pass, 3 stacked discriminator passes, 1 discriminator pass
    # in the generator update
    g, d, batch = make_step_fixture()
    calls = []

    def counted(layers, x):
        calls.append(len(x))
        return forward(layers, x)

    monkeypatch.setattr(gan, "forward", counted)
    schedule = GanSchedule(d_steps=3)
    gan.train_step(g, d, batch, AdamState(learning_rate=schedule.learning_rate),
                   AdamState(learning_rate=schedule.learning_rate), schedule)
    assert calls == [5, 10, 10, 10, 5]


def test_stacked_discriminator_pass_equals_two_separate_passes():
    g, d, batch = make_step_fixture()
    _, real_in, _, _, fake_in = step_inputs(g, batch)
    b = len(real_in)
    loss, grad = gan._discriminator_grads(d, real_in, fake_in)

    real_out, real_caches = forward(d.layers, real_in)
    fake_out, fake_caches = forward(d.layers, fake_in)
    g_real, _ = backward(d.layers, real_caches, -1.0 / (b * real_out))
    g_fake, _ = backward(d.layers, fake_caches, 1.0 / (b * (1.0 - fake_out)))
    separate = g_real + g_fake
    assert np.max(np.abs(grad - separate)) <= 1e-12 * np.max(np.abs(separate))
    assert loss == pytest.approx(d_loss_value(real_out, fake_out), rel=1e-12)


def test_updates_do_not_cross_networks():
    g, d, batch = make_step_fixture()
    gen_in, real_in, fake, gen_caches, fake_in = step_inputs(g, batch)

    gen_before = g.theta.copy()
    _, d_grad = gan._discriminator_grads(d, real_in, fake_in)
    adam_step(AdamState(learning_rate=0.01), d.theta, d_grad)
    assert np.array_equal(g.theta, gen_before)

    disc_before = d.theta.copy()
    _, g_grad = gan._generator_grads(g, d, gen_in, fake, gen_caches)
    adam_step(AdamState(learning_rate=0.01), g.theta, g_grad)
    assert np.array_equal(d.theta, disc_before)


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
    g, d, log = gan.train(windows, GanSchedule(epochs=0), seed=0,
                          gen_hidden=(8,), disc_hidden=(8,))
    assert log == []
    assert g.scaler is not None
    assert isinstance(d, Discriminator)


def test_train_determinism():
    windows = make_windows(jumpy_aligned(1), 5)[:40]
    schedule = GanSchedule(epochs=2)
    g1, d1, log1 = gan.train(windows, schedule, seed=3, gen_hidden=(8,), disc_hidden=(8,))
    g2, d2, log2 = gan.train(windows, schedule, seed=3, gen_hidden=(8,), disc_hidden=(8,))
    assert np.array_equal(g1.theta, g2.theta)
    assert np.array_equal(d1.theta, d2.theta)
    assert log1 == log2


def test_train_log_schema():
    windows = make_windows(jumpy_aligned(2), 5)[:20]
    _, _, log = gan.train(windows, GanSchedule(epochs=2), seed=0,
                          gen_hidden=(8,), disc_hidden=(8,))
    assert [row["step"] for row in log] == list(range(len(log)))
    assert all(np.isfinite(row["d_loss"]) and np.isfinite(row["g_loss"]) for row in log)


def test_conditioning_sensitivity_after_training():
    aligned = jumpy_aligned(4, n=200)
    windows = make_windows(aligned, 5)
    train_part, test_part = split(windows, "holdout_last_20")
    g, _, _ = gan.train(train_part, GanSchedule(epochs=30), seed=0,
                        gen_hidden=(16,), disc_hidden=(16,))
    deltas = []
    for w in test_part:
        flipped = WindowSample(w.history, -w.sentiment, w.target, w.target_date)
        deltas.append(abs(gan.predict(g, w) - gan.predict(g, flipped)))
    assert np.mean(deltas) > 0.0


# ---------------------------------------------------------------- forecasting


def test_forecast_holdout_emits_20_causal_rows():
    aligned = jumpy_aligned(5, n=120)
    windows = make_windows(aligned, 6)
    train_part, _ = split(windows, "holdout_last_20")
    g, _, _ = gan.train(train_part, GanSchedule(epochs=1), seed=1,
                        gen_hidden=(8,), disc_hidden=(8,))
    rows = evaluate("gan", g, aligned, "holdout_last_20", window_length=6).rows
    assert len(rows) == 20
    assert [day for day, _, _ in rows] == aligned.dates[-20:]
    closes = dict(zip(aligned.dates, aligned.features[:, CLOSE_COLUMN]))
    for day, _, actual in rows:
        assert actual == closes[day]


def test_scaler_round_trip_on_actuals():
    from sentigan.scaling import scaler_inverse, scaler_transform

    aligned = jumpy_aligned(6, n=120)
    windows = make_windows(aligned, 6)
    train_part, _ = split(windows, "holdout_last_20")
    g, _, _ = gan.train(train_part, GanSchedule(epochs=1), seed=1,
                        gen_hidden=(8,), disc_hidden=(8,))
    rows = aligned.features[:100]
    assert np.allclose(scaler_inverse(g.scaler, scaler_transform(g.scaler, rows)), rows,
                       atol=1e-9)


def test_predict_without_scaler_errors():
    rng = np.random.default_rng(12)
    g = build_generator(rng, 4, hidden=(8,))
    with pytest.raises(UsageError):
        gan.predict(g, scaled_window(rng, 4))


# ---------------------------------------------------------------- serialization


def test_generator_json_round_trip():
    aligned = jumpy_aligned(7, n=100)
    windows = make_windows(aligned, 5)
    g, d, _ = gan.train(windows[:-5], GanSchedule(epochs=1), seed=2,
                        gen_hidden=(8,), disc_hidden=(8,))
    g2 = Generator.from_dict(g.to_dict())
    d2 = Discriminator.from_dict(d.to_dict())
    w = windows[-1]
    assert gan.predict(g2, w) == gan.predict(g, w)
    assert np.array_equal(d2.theta, d.theta)


def test_generator_from_dict_ignores_legacy_noise_dim():
    # artifacts written before the noise input was removed carry noise_dim: 0
    aligned = jumpy_aligned(8, n=100)
    windows = make_windows(aligned, 5)
    g, _, _ = gan.train(windows[:-5], GanSchedule(epochs=1), seed=2,
                        gen_hidden=(8,), disc_hidden=(8,))
    legacy = {**g.to_dict(), "noise_dim": 0}
    restored = Generator.from_dict(legacy)
    assert "noise_dim" not in restored.to_dict()
    assert restored.to_dict() == g.to_dict()
    assert gan.predict(restored, windows[-1]) == gan.predict(g, windows[-1])


# ---------------------------------------------------------------- schedule


def test_schedule_validation():
    with pytest.raises(UsageError):
        GanSchedule(batch_size=0)
    with pytest.raises(UsageError):
        GanSchedule(d_steps=0)
    with pytest.raises(UsageError):
        GanSchedule(learning_rate=-0.1)
