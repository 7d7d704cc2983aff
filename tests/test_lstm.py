import json
import tracemalloc

import numpy as np
import pytest
import yaml

from conftest import aligned_from_close, scaler_over
from gradcheck import numerical_gradient, relative_error
from sentigan import lstm
from sentigan.config import load_config
from sentigan.data import CLOSE_COLUMN, make_windows
from sentigan.errors import DataError, DimensionError
from sentigan.eval import SPLITS, evaluate
from sentigan.lstm import LstmModel, TrainSchedule, Workspace
from sentigan.nn import carve
from sentigan.optim import AdamState, adam_step
from sentigan.scaling import scaler_fit_windows, scaler_transform


def zero_model(hidden=3, inputs=2):
    rng = np.random.default_rng(0)
    model = LstmModel.initialize(rng, hidden, inputs, scaler_over(inputs))
    model.theta[...] = 0.0
    return model


def model_arrays(model):
    return [model.w, model.u, model.b, model.head_weights, model.head_bias]


def cell(model, x, state):
    """One step's new (h, c) from lstm._step, for one window."""
    h, c = (np.array(s, dtype=float).reshape(1, -1) for s in state)
    z, tanh_c = np.empty((4, 1, model.hidden_size)), np.empty_like(c)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    lstm._step(lstm._signed_weights(model), x, h, c, z, z, c, tanh_c, h)
    return h[0], c[0]


def loss_and_gradient(model, xs, targets, workspace=None):
    """The loss and dL/d(theta) of one batch through the training forward."""
    workspace = workspace or Workspace(len(xs), xs.shape[1], model.hidden_size)
    loss, err = lstm.sequence_loss(model, xs, targets, workspace)
    # a copy: the backward returns model.grad, which the next call overwrites
    return loss, lstm._backward_sequence(model, xs, workspace, 2.0 * err / len(err)).copy()


def reference_loss_and_gradient(model, xs, targets):
    """Oracle for loss_and_gradient: per-step BPTT over batch-major (B, 4H)
    stacked gates, each step's products and gate derivatives made inside the
    time loop."""
    hs = model.hidden_size
    h = np.zeros((len(xs), hs))
    c = np.zeros_like(h)
    caches = []
    for t in range(xs.shape[1]):
        x = xs[:, t, :]
        z = x @ model.w.T + h @ model.u.T + model.b
        z[:, : 3 * hs] = 1.0 / (1.0 + np.exp(-z[:, : 3 * hs]))
        z[:, 3 * hs :] = np.tanh(z[:, 3 * hs :])
        i, f, o, cand = np.split(z, 4, axis=1)
        c_new = f * c + i * cand
        caches.append((x, h, c, i, f, o, cand, c_new))
        h, c = o * np.tanh(c_new), c_new
    err = (h @ model.head_weights.T + model.head_bias)[:, 0] - targets
    grad_out = 2.0 * err / len(err)
    grad = np.zeros_like(model.theta)
    dw, du, db, d_head_w, d_head_b = carve(grad, [g.shape for g in model.grads])
    d_head_w[...] = grad_out[:, None].T @ h
    d_head_b[0] = grad_out.sum()
    dh = grad_out[:, None] * model.head_weights
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, i, f, o, cand, c in reversed(caches):
        tc = np.tanh(c)
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dc * cand * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - cand * cand)], axis=1)
        dw += dz.T @ x
        du += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh = dz @ model.u
        dc = dc * f
    return float(np.mean(err * err)), grad


# ---------------------------------------------------------------- parameters


def test_every_parameter_array_is_a_view_of_theta():
    rng = np.random.default_rng(0)
    model = LstmModel.initialize(rng, 3, 6, scaler_over())
    # a trained model holds a float32 theta, as lstm.train returns it
    trained = LstmModel(3, 6, model.theta.astype(lstm.DTYPE), model.scaler)
    restored = LstmModel.from_dict(trained.to_dict())
    for m in (model, restored):
        assert m.theta.shape == (4 * (3 * 6 + 3 * 3 + 3) + 3 + 1,)
        for a in model_arrays(m):
            assert np.shares_memory(m.theta, a)
    assert np.array_equal(restored.theta, trained.theta)


def artifact_with_biases(hidden=3, **biases):
    """The artifact of a model of zero weights and the given per-gate bias,
    set through its `b` view in GATES order."""
    model = zero_model(hidden, 6)
    for name, block in zip(lstm.GATES, np.split(model.b, len(lstm.GATES))):
        block[...] = biases.get(name, 0.0)
    return model.to_dict()


def test_artifact_gate_order():
    # each block of b, in GATES order, must act as that gate in a model
    # loaded back from its artifact
    c0 = np.array([1.0, -2.0, 0.5])
    state = (np.zeros(3), c0)
    keep = LstmModel.from_dict(artifact_with_biases(forget=50.0, input=-50.0))
    _, c1 = cell(keep, [7.0, -3.0, 1.0, 2.0, -1.0, 0.5], state)
    assert np.allclose(c1, c0, rtol=0.0, atol=1e-12)
    write = LstmModel.from_dict(artifact_with_biases(forget=-50.0, input=50.0, candidate=1.0))
    _, c1 = cell(write, [7.0, -3.0, 1.0, 2.0, -1.0, 0.5], state)
    assert np.allclose(c1, np.tanh(1.0), rtol=0.0, atol=1e-12)


def test_from_dict_rejects_misshapen_gate():
    # the constructor's carve refuses a vector of the wrong length; a (1, P)
    # list would carve as a stack of one model
    d = LstmModel.initialize(np.random.default_rng(0), 3, 6, scaler_over()).to_dict()
    theta = d["theta"]
    for error, damage in ((DimensionError, {"theta": theta[:-1]}),
                          (DimensionError, {"theta": [*theta, 0.0]}),
                          (DataError, {"theta": [theta]}),
                          (DataError, {"hidden_size": 0})):
        with pytest.raises(error):
            LstmModel.from_dict({**d, **damage})


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
    model = LstmModel.initialize(rng, 4, 3, scaler_over(3))
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
    model = LstmModel.initialize(rng, hidden, inputs, scaler_over(inputs))
    xs = rng.normal(size=(2, length, inputs))
    targets = rng.normal(size=2)

    _, analytic = loss_and_gradient(model, xs, targets)
    numeric = numerical_gradient(
        lambda: lstm.sequence_loss(model, xs, targets)[0], model.theta, h=1e-5
    )
    worst = relative_error(analytic, numeric)
    assert worst < 1e-4, worst


@pytest.mark.parametrize("hidden", [4, 32])
@pytest.mark.parametrize("length", [1, 5, 20])
@pytest.mark.parametrize("batch", [1, 3, 32])
def test_bptt_matches_per_step_reference(batch, length, hidden):
    rng = np.random.default_rng(batch * 100 + length * 10 + hidden)
    model = LstmModel.initialize(rng, hidden, 6, scaler_over())
    model.b[...] = rng.normal(size=4 * hidden)
    xs = rng.uniform(-1.0, 1.0, size=(batch, length, 6))
    targets = rng.uniform(-1.0, 1.0, size=batch)
    loss, grad = loss_and_gradient(model, xs, targets)
    ref_loss, ref_grad = reference_loss_and_gradient(model, xs, targets)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_reused_workspace_equals_a_fresh_one():
    # a workspace carries every batch of one shape through train(); nothing
    # of the previous batch, h0 and c0 included, may reach the next
    rng = np.random.default_rng(2)
    model = LstmModel.initialize(rng, 5, 6, scaler_over())
    first, second = rng.uniform(-1.0, 1.0, size=(2, 4, 7, 6))
    targets = rng.uniform(-1.0, 1.0, size=4)
    fresh_loss, fresh_grad = loss_and_gradient(model, second, targets)
    reused = Workspace(4, 7, 5)
    loss_and_gradient(model, first, targets, reused)
    for poisoned in (False, True):
        if poisoned:
            for buffer in (*vars(reused).values(), model.grad):
                buffer.fill(np.nan)
        loss, grad = loss_and_gradient(model, second, targets, reused)
        assert loss == fresh_loss
        assert np.array_equal(grad, fresh_grad)


def test_float32_model_keeps_float32_through_forward_backward_and_adam():
    rng = np.random.default_rng(3)
    model = LstmModel.initialize(rng, 5, 6, scaler_over(), np.float32)
    model.b[...] = rng.normal(size=model.b.shape)
    xs = rng.uniform(-1.0, 1.0, size=(4, 7, 6))
    targets = rng.uniform(-1.0, 1.0, size=4)
    workspace = Workspace(4, 7, 5, model.theta.dtype)
    assert all(w.dtype == np.float32 for w in lstm._signed_weights(model))
    # windows, targets and output gradients in float64, as a caller may hand
    # them in, are cast to theta's dtype: they give the bits that their
    # float32 roundings give
    passes = []
    for dtype in (np.float64, np.float32):
        loss, err = lstm.sequence_loss(model, xs.astype(dtype), targets.astype(dtype), workspace)
        out = lstm._forward_sequence(model, xs.astype(dtype))
        grad_out = (2.0 * err / len(err)).astype(dtype)
        grad = lstm._backward_sequence(model, xs.astype(dtype), workspace, grad_out)
        assert grad is model.grad
        assert err.dtype == out.dtype == grad.dtype == np.float32
        passes.append((loss, err, out, grad.copy()))
    for wide, narrow in zip(*passes):
        assert np.array_equal(wide, narrow)
    assert model.grad.all()
    for name, buffer in vars(workspace).items():
        assert buffer.dtype == np.float32, name
    state = AdamState(learning_rate=0.01)
    gradient = model.grad.copy()
    adam_step(state, model.theta, model.grad)
    for array in (model.theta, model.grad, state.first_moment, state.second_moment):
        assert array.dtype == np.float32
    # the step ran inside the float32 gradient, not in a float64 copy of it
    assert not np.array_equal(model.grad, gradient)


def test_float32_model_matches_its_float64_copy_to_float32_rounding():
    rng = np.random.default_rng(4)
    wide = LstmModel.initialize(rng, 6, 6, scaler_over())
    wide.theta[...] = wide.theta.astype(np.float32)
    narrow = LstmModel(6, 6, wide.theta.astype(np.float32), wide.scaler)
    xs = rng.uniform(-1.0, 1.0, size=(8, 10, 6))
    targets = rng.uniform(-1.0, 1.0, size=8)
    loss32, grad32 = loss_and_gradient(narrow, xs, targets,
                                       Workspace(8, 10, 6, narrow.theta.dtype))
    loss64, grad64 = loss_and_gradient(wide, xs, targets)
    # float32 rounds each of the forward's and BPTT's steps: allow 100 of its eps
    tolerance = 100 * np.finfo(np.float32).eps
    assert abs(loss32 - loss64) <= tolerance * loss64
    assert np.max(np.abs(grad32 - grad64)) <= tolerance * np.max(np.abs(grad64))


# ---------------------------------------------------------------- training


def line_windows(n=200, length=20):
    aligned = aligned_from_close(np.arange(1.0, n + 1.0))
    return make_windows(aligned, length)


def test_zero_epochs_returns_initialized_model():
    windows = line_windows()
    model, log = lstm.train(windows, TrainSchedule(max_epochs=0), seed=3)
    assert log == []
    assert model.scaler is not None


def test_lstm_training_carves_no_gradient_views(monkeypatch):
    # the model carves its parameter and gradient views once, when it is
    # built; no batch's backward carves again
    calls = []
    real_carve = lstm.carve
    monkeypatch.setattr(lstm, "carve", lambda *args: calls.append(args) or real_carve(*args))
    _, log = lstm.train(line_windows(120), TrainSchedule(max_epochs=2), seed=0)
    assert len(log) == 2
    assert len(calls) == 2


def test_train_determinism():
    windows = line_windows(120)
    schedule = TrainSchedule(max_epochs=3)
    m1, log1 = lstm.train(windows, schedule, seed=11)
    m2, log2 = lstm.train(windows, schedule, seed=11)
    assert m1.theta.dtype == np.float32
    assert np.array_equal(m1.theta, m2.theta)
    assert log1 == log2


def test_sentiment_column_does_not_reach_the_lstm(monkeypatch):
    # the LSTM is numeric-only: two datasets that differ only in their
    # sentiment column give the same artifact and the same forecasts
    close = 50.0 + np.cumsum(np.random.default_rng(4).normal(0.0, 1.0, 90))
    flat = aligned_from_close(close)
    moody = aligned_from_close(close, sentiment=np.linspace(-1.0, 1.0, 90))
    monkeypatch.setattr(lstm, "HIDDEN_SIZE", 4)
    monkeypatch.setattr(lstm, "BATCH_SIZE", 8)
    schedule = TrainSchedule(max_epochs=3)
    results = []
    for aligned in (flat, moody):
        windows = make_windows(aligned, 5)
        boundary = SPLITS["lstm"](len(windows))
        model, _ = lstm.train(windows[:boundary], schedule, seed=6)
        report = evaluate("lstm", model, aligned, window_length=5)
        results.append((model.to_dict(), report.to_dict()))
    assert results[0] == results[1]


def test_train_too_few_samples(monkeypatch):
    monkeypatch.setattr(lstm, "BATCH_SIZE", 32)
    with pytest.raises(DataError):
        lstm.train(line_windows(40, 10), TrainSchedule(), seed=0)


@pytest.mark.parametrize("field, value", [
    ("early_stop_patience", 0), ("max_epochs", -1),
])
def test_schedule_rejects_out_of_range_values(tmp_path, field, value):
    # the config's rule table is the one check of a schedule's values
    (tmp_path / "AAA.csv").write_text("")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"seed": 0, "assets": [{"symbol": "AAA", "ohlcv": "AAA.csv"}],
                                      "lstm": {field: value}}))
    with pytest.raises(DataError, match=f"lstm.{field}"):
        load_config(config)


def test_noiseless_line_beats_persistence(monkeypatch):
    # evaluated on the chronological validation tail, which train() holds out
    # from every gradient update
    monkeypatch.setattr(lstm, "HIDDEN_SIZE", 16)
    monkeypatch.setattr(lstm, "PLATEAU_PATIENCE", 60)
    windows = line_windows(200, 20)
    schedule = TrainSchedule(max_epochs=2000, early_stop_patience=150)
    model, log = lstm.train(windows, schedule, seed=0)
    n_val = max(1, int(round(lstm.VALIDATION_FRACTION * len(windows))))
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


def test_early_stopping_returns_best_validation_weights(monkeypatch):
    monkeypatch.setattr(lstm, "PLATEAU_PATIENCE", 3)
    windows = line_windows(150, 10)
    schedule = TrainSchedule(max_epochs=40, early_stop_patience=5)
    model, log = lstm.train(windows, schedule, seed=7)
    assert log, "expected a non-empty training log"
    n_val = max(1, int(round(lstm.VALIDATION_FRACTION * len(windows))))
    xs_val, y_val = scaled_windows(model, windows[-n_val:])
    workspace = Workspace(*xs_val.shape[:2], model.hidden_size, model.theta.dtype)
    final_val = lstm.sequence_loss(model, xs_val, y_val, workspace)[0]
    # the logged losses keep one step of state; the training forward is bitwise equal
    assert final_val == min(row["val_loss"] for row in log)


def scaled_windows(model, windows):
    """Scaled histories (N, L, 6) and scaled target closes (N,)."""
    return (scaler_transform(model.scaler, windows.histories),
            scaler_transform(model.scaler, windows.targets)[:, CLOSE_COLUMN])


def test_forward_only_pass_equals_training_forward():
    windows = line_windows(60, 6)
    scaler = scaler_fit_windows(windows.histories, windows.targets)
    model = LstmModel.initialize(np.random.default_rng(4), 5, 6, scaler, lstm.DTYPE)
    xs, ys = scaled_windows(model, windows)
    workspace = Workspace(len(xs), 6, 5, model.theta.dtype)
    kept = lstm.sequence_loss(model, xs, ys, workspace)
    assert np.isfinite(workspace.gates).all()
    alone = lstm.sequence_loss(model, xs, ys)
    assert alone[0] == kept[0]
    assert np.array_equal(alone[1], kept[1])


def test_forward_only_pass_keeps_no_sequence_deep_buffer():
    n, length, hidden = 500, 20, 32
    rng = np.random.default_rng(5)
    model = LstmModel.initialize(rng, hidden, 6, scaler_over())
    xs = rng.uniform(-1.0, 1.0, size=(n, length, 6))
    tracemalloc.start()
    try:
        lstm._forward_sequence(model, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < length * n * hidden * xs.itemsize


def test_lr_schedule_non_increasing(monkeypatch):
    monkeypatch.setattr(lstm, "PLATEAU_PATIENCE", 2)
    windows = line_windows(150, 10)
    _, log = lstm.train(windows, TrainSchedule(max_epochs=40, early_stop_patience=15), seed=9)
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
    # batched products may round differently from one-row ones, in the last
    # bit of the model's dtype: float32 as trained, float64 as built
    close = 100.0 + np.cumsum(np.random.default_rng(8).normal(0.0, 1.0, 140))
    windows = make_windows(aligned_from_close(close), 20)
    trained, _ = lstm.train(windows[:100], TrainSchedule(max_epochs=3), seed=1)
    for dtype, tolerance in ((np.float32, np.finfo(np.float32).eps), (np.float64, 1e-15)):
        model = LstmModel(trained.hidden_size, trained.input_size,
                          trained.theta.astype(dtype), trained.scaler)
        batched = lstm.predict(model, windows[100:])
        alone = np.array([lstm.predict(model, windows[i : i + 1])[0] for i in range(100, 120)])
        assert batched.shape == (20,)
        assert np.max(np.abs(batched - alone) / np.abs(alone)) <= tolerance


def test_building_a_model_without_a_scaler_is_refused():
    model = zero_model(4, 6)
    with pytest.raises(TypeError, match="scaler"):
        LstmModel(hidden_size=4, input_size=6, theta=model.theta)
    with pytest.raises(TypeError, match="scaler"):
        LstmModel.initialize(np.random.default_rng(0), 4, 6)
    with pytest.raises(DataError, match="no fitted scaler"):
        LstmModel.from_dict({**model.to_dict(), "scaler": None})


def test_model_json_round_trip():
    windows = line_windows(120)
    model, _ = lstm.train(windows, TrainSchedule(max_epochs=2), seed=2)
    # float32 values are exact as JSON floats and load back as float32
    restored = LstmModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(lstm.predict(restored, windows[-5:]), lstm.predict(model, windows[-5:]))
    assert model.theta.dtype == restored.theta.dtype == np.float32
    assert np.array_equal(restored.theta, model.theta)
