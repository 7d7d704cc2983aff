import numpy as np
import pytest

from conftest import aligned_from_close
from sentigan import lstm
from sentigan.data import CLOSE_COLUMN, make_windows, split_boundary
from sentigan.errors import DimensionError, TrainingError, UsageError
from sentigan.eval import evaluate
from sentigan.gradcheck import numerical_gradient, relative_error
from sentigan.lstm import LstmModel, TrainSchedule
from sentigan.scaling import scaler_transform


def zero_model(hidden=3, inputs=2):
    rng = np.random.default_rng(0)
    model = LstmModel.initialize(rng, hidden, inputs)
    model.theta[...] = 0.0
    return model


def model_arrays(model):
    return [model.w, model.u, model.b, model.head_weights, model.head_bias]


def cell(model, x, state):
    """One step's new (h, c) from lstm._step."""
    *_, c_new, h_new = lstm._step(model, np.asarray(x, dtype=float), *state)
    return h_new, c_new


# ---------------------------------------------------------------- parameters


def test_every_parameter_array_is_a_view_of_theta():
    rng = np.random.default_rng(0)
    model = LstmModel.initialize(rng, 3, 2)
    restored = LstmModel.from_dict(model.to_dict())
    for m in (model, restored):
        assert m.theta.shape == (4 * (3 * 2 + 3 * 3 + 3) + 3 + 1,)
        for a in model_arrays(m):
            assert np.shares_memory(m.theta, a)
    assert np.array_equal(restored.theta, model.theta)


def artifact_with_biases(hidden=3, inputs=2, **biases):
    """An artifact dict built by hand: zero weights, the given per-gate bias."""
    zero = {"w": np.zeros((hidden, inputs)).tolist(), "u": np.zeros((hidden, hidden)).tolist()}
    return {
        "hidden_size": hidden,
        "input_size": inputs,
        "gates": {name: {**zero, "b": [biases.get(name, 0.0)] * hidden} for name in lstm.GATES},
        "head_weights": np.zeros((1, hidden)).tolist(),
        "head_bias": [0.0],
    }


def test_artifact_gate_order():
    # the artifact names each gate's block; a model loaded from it must use
    # each block as that gate, whatever the in-memory stacking order
    c0 = np.array([1.0, -2.0, 0.5])
    state = (np.zeros(3), c0)
    keep = LstmModel.from_dict(artifact_with_biases(forget=50.0, input=-50.0))
    _, c1 = cell(keep, [7.0, -3.0], state)
    assert np.allclose(c1, c0, rtol=0.0, atol=1e-12)
    write = LstmModel.from_dict(artifact_with_biases(forget=-50.0, input=50.0, candidate=1.0))
    _, c1 = cell(write, [7.0, -3.0], state)
    assert np.allclose(c1, np.tanh(1.0), rtol=0.0, atol=1e-12)


def test_from_dict_rejects_misshapen_gate():
    d = LstmModel.initialize(np.random.default_rng(0), 3, 2).to_dict()
    d["gates"]["forget"]["w"] = np.zeros((2, 3)).tolist()
    with pytest.raises(DimensionError):
        LstmModel.from_dict(d)


# ---------------------------------------------------------------- cell


def test_cell_forward_zero_weights():
    model = zero_model()
    c0 = np.array([1.0, -2.0, 0.5])
    h0 = np.zeros(3)
    h1, c1 = cell(model, [7.0, -3.0], (h0, c0))
    assert np.allclose(c1, 0.5 * c0)
    assert np.allclose(h1, 0.5 * np.tanh(0.5 * c0))


def test_cell_forward_zero_state_zero_candidate():
    model = zero_model()
    h1, c1 = cell(model, np.zeros(2), (np.zeros(3), np.zeros(3)))
    assert np.allclose(h1, 0.0)
    assert np.allclose(c1, 0.0)


def test_gate_outputs_bounded():
    rng = np.random.default_rng(1)
    model = LstmModel.initialize(rng, 4, 3)
    h = rng.normal(size=4)
    c = rng.normal(size=4)
    x = rng.normal(size=3) * 10
    h1, c1 = cell(model, x, (h, c))
    assert np.all(np.abs(h1) < 1.0)
    assert np.all(np.isfinite(c1))


# ---------------------------------------------------------------- gradients


@pytest.mark.parametrize("seed", range(10))
def test_bptt_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    hidden, length, inputs = 4, 5, 3
    model = LstmModel.initialize(rng, hidden, inputs)
    xs = rng.normal(size=(2, length, inputs))
    targets = rng.normal(size=2)

    caches = []
    loss, out, final_h, err = lstm.sequence_loss(model, xs, targets, caches)
    analytic = lstm._backward_sequence(model, caches, final_h, 2.0 * err / len(err))

    numeric = numerical_gradient(
        lambda: lstm.sequence_loss(model, xs, targets)[0], model.theta, h=1e-5
    )
    worst = relative_error(analytic, numeric)
    assert worst < 1e-4, worst


# ---------------------------------------------------------------- training


def line_windows(n=200, length=20):
    aligned = aligned_from_close(np.arange(1.0, n + 1.0))
    return make_windows(aligned, length)


def test_zero_epochs_returns_initialized_model():
    windows = line_windows()
    model, log = lstm.train(windows, TrainSchedule(max_epochs=0), seed=3)
    assert log == []
    assert model.scaler is not None


def test_train_determinism():
    windows = line_windows(120)
    schedule = TrainSchedule(max_epochs=3)
    m1, log1 = lstm.train(windows, schedule, seed=11)
    m2, log2 = lstm.train(windows, schedule, seed=11)
    assert np.array_equal(m1.theta, m2.theta)
    assert log1 == log2


def test_sentiment_column_does_not_reach_the_lstm():
    # the LSTM is numeric-only: two datasets that differ only in their
    # sentiment column give the same artifact and the same forecasts
    close = 50.0 + np.cumsum(np.random.default_rng(4).normal(0.0, 1.0, 90))
    flat = aligned_from_close(close)
    moody = aligned_from_close(close, sentiment=np.linspace(-1.0, 1.0, 90))
    schedule = TrainSchedule(max_epochs=3, batch_size=8)
    results = []
    for aligned in (flat, moody):
        windows = make_windows(aligned, 5)
        boundary = split_boundary(len(windows), "fraction_70_30")
        model, _ = lstm.train(windows[:boundary], schedule, seed=6, hidden_size=4)
        report = evaluate("lstm", model, aligned, "fraction_70_30", window_length=5)
        results.append((model.to_dict(), report.rows))
    assert results[0] == results[1]


def test_train_too_few_samples():
    with pytest.raises(TrainingError):
        lstm.train(line_windows(40, 10), TrainSchedule(batch_size=32), seed=0)


def test_noiseless_line_beats_persistence():
    # evaluated on the chronological validation tail, which train() holds out
    # from every gradient update
    windows = line_windows(200, 20)
    schedule = TrainSchedule(
        learning_rate=0.002, max_epochs=2000, early_stop_patience=150,
        plateau_patience=60,
    )
    model, log = lstm.train(windows, schedule, seed=0, hidden_size=16)
    n_val = max(1, int(round(schedule.validation_fraction * len(windows))))
    test_part = windows[-n_val:]
    preds = lstm.predict(model, test_part)
    actual = test_part.targets[:, CLOSE_COLUMN]
    persistence = test_part.histories[:, -1, CLOSE_COLUMN]
    rmse = np.sqrt(np.mean((preds - actual) ** 2))
    rmse_persistence = np.sqrt(np.mean((persistence - actual) ** 2))
    assert rmse < rmse_persistence


def test_constant_price_forecast_within_one_percent():
    windows = make_windows(aligned_from_close(np.full(120, 42.0)), 10)
    model, _ = lstm.train(windows, TrainSchedule(max_epochs=5), seed=5)
    [pred] = lstm.predict(model, windows[-1:])
    assert abs(pred - 42.0) <= 0.42


def test_early_stopping_returns_best_validation_weights():
    windows = line_windows(150, 10)
    schedule = TrainSchedule(max_epochs=40, early_stop_patience=5, plateau_patience=3)
    model, log = lstm.train(windows, schedule, seed=7)
    assert log, "expected a non-empty training log"
    n_val = max(1, int(round(schedule.validation_fraction * len(windows))))
    xs_val, y_val = scaled_windows(model, windows[-n_val:])
    final_val = lstm.sequence_loss(model, xs_val, y_val, [])[0]
    # the logged losses keep no caches; the same loss with caches is bitwise equal
    assert final_val == min(row["val_loss"] for row in log)


def scaled_windows(model, windows):
    """Scaled histories (N, L, 6) and scaled target closes (N,)."""
    return (scaler_transform(model.scaler, windows.histories),
            scaler_transform(model.scaler, windows.targets)[:, CLOSE_COLUMN])


def test_loss_without_caches_equals_loss_with_caches():
    windows = line_windows(60, 6)
    model, _ = lstm.train(windows, TrainSchedule(max_epochs=0), seed=4, hidden_size=5)
    xs, ys = scaled_windows(model, windows)
    caches = []
    with_caches = lstm.sequence_loss(model, xs, ys, caches)
    assert len(caches) == 6
    without = lstm.sequence_loss(model, xs, ys)
    assert without[0] == with_caches[0]
    for a, b in zip(without[1:], with_caches[1:]):
        assert np.array_equal(a, b)


def test_lr_schedule_non_increasing():
    windows = line_windows(150, 10)
    _, log = lstm.train(
        windows, TrainSchedule(max_epochs=40, plateau_patience=2, early_stop_patience=15),
        seed=9,
    )
    lrs = [row["lr"] for row in log]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


# ---------------------------------------------------------------- predict


def test_predict_deterministic_and_finite():
    windows = line_windows(120)
    model, _ = lstm.train(windows[:-5], TrainSchedule(max_epochs=2), seed=1)
    a = lstm.predict(model, windows[-1:])
    b = lstm.predict(model, windows[-1:])
    assert a.shape == (1,)
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_batched_predict_equals_one_window_calls():
    # batched products may round differently from one-row ones, in the last bit
    close = 100.0 + np.cumsum(np.random.default_rng(8).normal(0.0, 1.0, 140))
    windows = make_windows(aligned_from_close(close), 20)
    model, _ = lstm.train(windows[:100], TrainSchedule(max_epochs=3), seed=1)
    batched = lstm.predict(model, windows[100:])
    alone = np.array([lstm.predict(model, windows[i : i + 1])[0] for i in range(100, 120)])
    assert batched.shape == (20,)
    assert np.max(np.abs(batched - alone) / np.abs(alone)) <= 1e-15


def test_predict_without_scaler_errors():
    model = zero_model(4, 6)
    model.scaler = None
    with pytest.raises(UsageError):
        lstm.predict(model, line_windows(50, 5)[:1])


def test_model_json_round_trip():
    windows = line_windows(120)
    model, _ = lstm.train(windows, TrainSchedule(max_epochs=2), seed=2)
    restored = LstmModel.from_dict(model.to_dict())
    assert np.array_equal(lstm.predict(restored, windows[-5:]), lstm.predict(model, windows[-5:]))
