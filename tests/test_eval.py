import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aligned_from_close, holdout_split
from sentigan import arima, eval as ev, gan, lstm
from sentigan.arima import ArimaOrder
from sentigan.data import CLOSE_COLUMN, make_windows
from sentigan.errors import DataError, DimensionError, UsageError
from sentigan.eval import ForecastReport, MetricSet
from sentigan.gan import GanSchedule
from sentigan.lstm import TrainSchedule


# ---------------------------------------------------------------- metrics


def test_perfect_prediction_all_zero():
    m = ev.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.mae, m.mse, m.rmse, m.mape) == (0.0, 0.0, 0.0, 0.0)


def test_hand_arithmetic():
    m = ev.metrics([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
    assert m.mae == pytest.approx(1 / 3)
    assert m.mse == pytest.approx(1 / 3)
    assert m.rmse == pytest.approx(0.5774, abs=1e-4)
    assert m.mape == pytest.approx(0.1111, abs=1e-4)


def test_rmse_mse_consistency_of_reported_values():
    # published Google ARIMA row: RMSE 16.62 against an MSE of 276.17
    assert 16.62**2 == pytest.approx(276.17, rel=0.005)


def test_length_mismatch_errors():
    with pytest.raises(DimensionError):
        ev.metrics([1.0, 2.0], [1.0])


def test_empty_input_errors():
    with pytest.raises(DataError):
        ev.metrics([], [])


def test_zero_actual_omits_mape():
    m = ev.metrics([1.0, 2.0], [0.0, 2.0])
    assert m.mape is None
    assert m.to_dict()["mape_omitted"]
    assert m.mae == pytest.approx(0.5)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_mae_never_exceeds_rmse(actual, seed):
    rng = np.random.default_rng(seed)
    predicted = np.asarray(actual) + rng.normal(size=len(actual))
    m = ev.metrics(predicted, actual)
    assert m.mae <= m.rmse + 1e-12
    assert m.rmse**2 == pytest.approx(m.mse, rel=1e-9, abs=1e-9)


@given(st.floats(0.01, 100.0), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_scale_equivariance(c, seed):
    rng = np.random.default_rng(seed)
    actual = rng.uniform(1.0, 10.0, size=12)
    predicted = actual + rng.normal(size=12)
    base = ev.metrics(predicted, actual)
    scaled = ev.metrics(c * predicted, c * actual)
    assert scaled.mae == pytest.approx(c * base.mae, rel=1e-9)
    assert scaled.mse == pytest.approx(c * c * base.mse, rel=1e-9)
    assert scaled.rmse == pytest.approx(c * base.rmse, rel=1e-9)
    assert scaled.mape == pytest.approx(base.mape, rel=1e-9)


# ---------------------------------------------------------------- evaluate


def ar1_aligned(seed=0, n=120, base=50.0):
    rng = np.random.default_rng(seed)
    z = np.zeros(n)
    for t in range(1, n):
        z[t] = 0.8 * z[t - 1] + rng.normal()
    return aligned_from_close(base + z, sentiment=rng.uniform(-1, 1, size=n))


# ---------------------------------------------------------------- split


def aligned_of(model, total):
    """A dataset of which `model`'s partition at window length 1 has `total` items."""
    return ar1_aligned(n=total if model == "arima" else total + 1)


@pytest.mark.parametrize(
    "total,model,train_size", [(100, "arima", 90), (100, "lstm", 70), (120, "gan", 100)],
)
def test_split_sizes(total, model, train_size):
    items, boundary = ev.partition(model, aligned_of(model, total), 1)
    assert (len(items), boundary) == (total, train_size)


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=2, max_value=500),
    model=st.sampled_from(ev.MODEL_NAMES),
)
def test_split_partitions_disjoint_exhaustive_causal(total, model):
    items = list(range(total))
    try:
        _, boundary = ev.partition(model, aligned_of(model, total), 1)
    except DataError:
        assert model == "gan" and total <= 20
        return
    train, test = items[:boundary], items[boundary:]
    assert train and test
    assert train + test == items  # order preserved, exhaustive
    assert max(train) < min(test)  # causality
    if model == "arima":
        assert len(train) == int(np.floor(0.9 * total))
    elif model == "lstm":
        assert len(train) == int(np.floor(0.7 * total))
    else:
        assert len(test) == 20


def test_split_empty_partition_errors():
    with pytest.raises(DataError, match="empty partition"):
        ev.partition("arima", aligned_of("arima", 1), 1)
    with pytest.raises(DataError, match="empty partition"):
        ev.partition("gan", aligned_of("gan", 10), 1)


@pytest.mark.parametrize("model", ev.MODEL_NAMES)
def test_partition_holds_out_the_rows_after_the_stamped_ones(model):
    aligned, length = ar1_aligned(), 8
    rows = len(aligned.dates)
    items, boundary = ev.partition(model, aligned, length)
    assert len(items) == (rows if model == "arima" else rows - length)
    assert boundary == ev.SPLITS[model](len(items))
    # the first held-out target is the first row the artifact's stamp does not hash
    first = rows - len(items) + boundary
    targets = items if model == "arima" else items.targets[:, CLOSE_COLUMN]
    assert np.array_equal(targets[boundary - 1:boundary + 1],
                          aligned.features[first - 1:first + 1, CLOSE_COLUMN])


def test_evaluate_arima_row_counts():
    aligned = ar1_aligned()
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = ev.SPLITS["arima"](len(closes))
    model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 0))
    report = ev.evaluate("arima", model, aligned, 20)
    assert len(report.dates) == len(report.predicted) == len(report.actual) == 12
    assert report.model == "arima"
    assert report.metrics.rmse > 0


def test_evaluate_arima_partition_mismatch_errors():
    # a (100, 1, 10) forecast needs 111 values, more than the train
    # partition's 108, so no fit on this partition wrote the model
    aligned = ar1_aligned()
    model = arima.ArimaModel(ArimaOrder(100, 1, 10), np.zeros(111))
    with pytest.raises(DataError, match=r"order \(100, 1, 10\) needs 111 values .*, got 108"):
        ev.evaluate("arima", model, aligned, 20)


def test_evaluate_lstm_report(monkeypatch):
    monkeypatch.setattr(lstm, "HIDDEN_SIZE", 8)
    aligned = ar1_aligned(1)
    windows, boundary = ev.partition("lstm", aligned, 8)
    model, _ = lstm.train(windows[:boundary], TrainSchedule(max_epochs=2), seed=0)
    report = ev.evaluate("lstm", model, aligned, window_length=8)
    assert len(report.predicted) == 34
    assert report.dates == aligned.dates[-34:]
    assert report.metrics.mape is not None


def test_evaluate_gan_report():
    aligned = ar1_aligned(3)
    windows = make_windows(aligned, 6)
    train_part, _ = holdout_split(windows)
    schedule = GanSchedule(epochs=1, gen_hidden=(8,), disc_hidden=(8,))
    [(g, _)] = gan.train([train_part], schedule, seed=0)
    report = ev.evaluate("gan", g, aligned, window_length=6)
    assert len(report.predicted) == 20
    assert np.isfinite(report.predicted).all()


def test_evaluate_rejects_unknown_model():
    with pytest.raises(UsageError):
        ev.evaluate("prophet", None, ar1_aligned(), 20)


def test_evaluate_rerun_identical():
    aligned = ar1_aligned(6)
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = ev.SPLITS["arima"](len(closes))
    model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 1))
    a = ev.evaluate("arima", model, aligned, 20)
    b = ev.evaluate("arima", model, aligned, 20)
    assert a.to_dict() == b.to_dict()


def test_report_json_round_trip():
    aligned = ar1_aligned(7)
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = ev.SPLITS["arima"](len(closes))
    model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 0))
    report = ev.evaluate("arima", model, aligned, 20)
    restored = ForecastReport.from_dict(report.to_dict())
    assert restored.to_dict() == report.to_dict()
    nested = report.to_dict()
    for row in nested["rows"]:
        row["predicted"] = [row["predicted"]]
    with pytest.raises(DataError, match="one predicted and one actual"):
        ForecastReport.from_dict(nested)


# ---------------------------------------------------------------- aggregate

ARIMA_RMSES = [16.62, 20.87, 11.83, 146.11, 41.22, 182.04, 30.70]
LSTM_RMSES = [6.97, 3.35, 6.24, 11.21, 14.76, 118.30, 13.21]
GAN_RMSES = [13.42, 7.05, 7.02, 8.24, 27.07, 13.39, 9.33]
SYMBOLS = [f"A{i}" for i in range(7)]


def stub_report(symbol, model, rmse):
    return ForecastReport(
        symbol, model, dates=[], predicted=np.zeros(0), actual=np.zeros(0),
        metrics=MetricSet(mae=rmse, mse=rmse * rmse, rmse=rmse, mape=None),
    )


def stub_row(symbol, rmses):
    """One asset's grid row: a report per model, in MODEL_NAMES order."""
    return [stub_report(symbol, model, r) for model, r in zip(ev.MODEL_NAMES, rmses)]


def published_grid():
    return [stub_row(s, rmses) for s, *rmses in zip(SYMBOLS, ARIMA_RMSES, LSTM_RMSES, GAN_RMSES)]


def test_aggregate_published_values():
    agg = ev.aggregate(published_grid())
    assert agg.mean_rmse["arima"] == pytest.approx(64.20, abs=0.005)
    assert agg.median_rmse["arima"] == pytest.approx(30.70)
    assert agg.wins["arima"] == 0
    assert agg.mean_rmse["lstm"] == pytest.approx(24.86, abs=0.005)
    assert agg.median_rmse["lstm"] == pytest.approx(11.21)
    assert agg.wins["lstm"] == 4
    assert agg.mean_rmse["gan"] == pytest.approx(12.22, abs=0.005)
    assert agg.median_rmse["gan"] == pytest.approx(9.33)
    assert agg.wins["gan"] == 3
    assert sum(agg.wins.values()) == len(SYMBOLS)
    assert agg.ties == []


def test_aggregate_tie_credits_all_models():
    agg = ev.aggregate([stub_row("X", [2.0, 2.0, 5.0])])
    assert agg.wins == {"arima": 1, "lstm": 1, "gan": 0}
    assert agg.ties == [("X", ["arima", "lstm"])]


def test_aggregate_even_count_median():
    grid = [stub_row(f"S{i}", [rmse, 1.0, 1.0]) for i, rmse in enumerate([1.0, 2.0, 3.0, 10.0])]
    agg = ev.aggregate(grid)
    assert agg.median_rmse["arima"] == pytest.approx(2.5)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_aggregate_matches_a_plain_loop_reference(n_assets, seed, few_values):
    # Each model's mean is np.mean of a contiguous list, so it is summed
    # pairwise; past 7 assets an axis-0 mean over an (assets, models) array,
    # summed in sequence, differs from it in the last bit.
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 200.0, (n_assets, 3))
    if few_values:  # draws from 4 values: exact ties are common
        values = rng.choice(values.ravel()[:4], (n_assets, 3))
    grid = [stub_row(f"S{i:02d}", row.tolist()) for i, row in enumerate(values)]
    agg = ev.aggregate(grid)
    ties = []
    for row in grid:
        best = min(r.metrics.rmse for r in row)
        winners = [r.model for r in row if r.metrics.rmse == best]
        if len(winners) > 1:
            ties.append((row[0].symbol, winners))
    for j, model in enumerate(ev.MODEL_NAMES):
        rmses = [row[j].metrics.rmse for row in grid]
        assert agg.mean_rmse[model] == float(np.mean(rmses))
        assert agg.median_rmse[model] == float(np.median(rmses))
        wins = 0
        for row in grid:
            if row[j].metrics.rmse == min(r.metrics.rmse for r in row):
                wins += 1
        assert agg.wins[model] == wins
    assert agg.ties == ties


def test_aggregate_csv_format():
    agg = ev.aggregate(published_grid())
    lines = agg.to_csv().strip().split("\n")
    assert lines[0] == "model,mean_rmse,median_rmse,wins"
    assert len(lines) == 4
    assert lines[1].startswith("arima,") and lines[1].endswith(",0")
