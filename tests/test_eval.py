from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aligned_from_close, holdout_split
from sentigan import arima, eval as ev, gan, lstm
from sentigan.arima import ArimaOrder
from sentigan.data import CLOSE_COLUMN, make_windows, split_boundary
from sentigan.errors import DataError, DimensionError, UsageError
from sentigan.eval import AggregateReport, ForecastReport, MetricSet
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
    assert m.mape_omitted
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


def test_evaluate_arima_row_counts():
    aligned = ar1_aligned()
    closes = aligned.features[:, CLOSE_COLUMN]
    for policy, expected in [
        ("fraction_90_10", 12), ("fraction_70_30", 36), ("holdout_last_20", 20),
    ]:
        boundary = split_boundary(len(closes), policy)
        model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 0))
        report = ev.evaluate("arima", model, aligned, policy)
        assert len(report.rows) == expected
        assert report.model == "arima"
        assert report.metrics.rmse > 0


def test_evaluate_arima_partition_mismatch_errors():
    aligned = ar1_aligned()
    closes = aligned.features[:, CLOSE_COLUMN]
    model = arima.fit(closes[:70], ArimaOrder(1, 0, 0))  # not a policy boundary
    with pytest.raises(DataError):
        ev.evaluate("arima", model, aligned, "holdout_last_20")


def test_evaluate_lstm_report():
    aligned = ar1_aligned(1)
    windows = make_windows(aligned, 8)
    train_part, test_part = holdout_split(windows)
    model, _ = lstm.train(train_part, TrainSchedule(max_epochs=2), seed=0, hidden_size=8)
    report = ev.evaluate("lstm", model, aligned, "holdout_last_20", window_length=8)
    assert len(report.rows) == 20
    assert [r[0] for r in report.rows] == aligned.dates[-20:]
    assert report.metrics.mape is not None


def test_evaluate_lstm_partition_mismatch_errors():
    # trending close, so the holdout rows extend the scaler range
    rng = np.random.default_rng(2)
    aligned = aligned_from_close(50.0 + 0.4 * np.arange(120) + rng.normal(size=120))
    windows = make_windows(aligned, 8)
    model, _ = lstm.train(windows, TrainSchedule(max_epochs=1), seed=0, hidden_size=8)
    # trained on all windows, so the scaler saw holdout rows
    with pytest.raises(DataError):
        ev.evaluate("lstm", model, aligned, "holdout_last_20", window_length=8)


def test_evaluate_gan_report():
    aligned = ar1_aligned(3)
    windows = make_windows(aligned, 6)
    train_part, _ = holdout_split(windows)
    [(g, _, _)] = gan.train([train_part], GanSchedule(epochs=1), seed=0,
                        gen_hidden=(8,), disc_hidden=(8,))
    report = ev.evaluate("gan", g, aligned, "holdout_last_20", window_length=6)
    assert len(report.rows) == 20
    assert all(np.isfinite(r[1]) for r in report.rows)


def test_evaluate_windowed_needs_window_length():
    aligned = ar1_aligned(4)
    with pytest.raises(UsageError):
        ev.evaluate("lstm", None, aligned, "holdout_last_20")


def test_evaluate_rejects_unknown_model():
    with pytest.raises(UsageError):
        ev.evaluate("prophet", None, ar1_aligned(), "holdout_last_20")


def test_evaluate_rejects_shuffled_dates():
    aligned = ar1_aligned(5)
    aligned.dates[3], aligned.dates[4] = aligned.dates[4], aligned.dates[3]
    closes = aligned.features[:, CLOSE_COLUMN]
    model = arima.fit(closes[:100], ArimaOrder(0, 1, 0))
    with pytest.raises(DataError):
        ev.evaluate("arima", model, aligned, "holdout_last_20")


def test_evaluate_rerun_identical():
    aligned = ar1_aligned(6)
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = split_boundary(len(closes), "fraction_90_10")
    model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 1))
    a = ev.evaluate("arima", model, aligned, "fraction_90_10")
    b = ev.evaluate("arima", model, aligned, "fraction_90_10")
    assert a.to_dict() == b.to_dict()


def test_report_json_round_trip():
    aligned = ar1_aligned(7)
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = split_boundary(len(closes), "holdout_last_20")
    model = arima.fit(closes[:boundary], ArimaOrder(1, 0, 0))
    report = ev.evaluate("arima", model, aligned, "holdout_last_20")
    restored = ForecastReport.from_dict(report.to_dict())
    assert restored.to_dict() == report.to_dict()


# ---------------------------------------------------------------- aggregate

ARIMA_RMSES = [16.62, 20.87, 11.83, 146.11, 41.22, 182.04, 30.70]
LSTM_RMSES = [6.97, 3.35, 6.24, 11.21, 14.76, 118.30, 13.21]
GAN_RMSES = [13.42, 7.05, 7.02, 8.24, 27.07, 13.39, 9.33]
SYMBOLS = [f"A{i}" for i in range(7)]


def stub_report(symbol, model, rmse):
    return ForecastReport(
        symbol, model, rows=[],
        metrics=MetricSet(mae=rmse, mse=rmse * rmse, rmse=rmse, mape=None,
                          mape_omitted=True),
    )


def published_reports():
    reports = []
    for model, rmses in (
        ("arima", ARIMA_RMSES), ("lstm", LSTM_RMSES), ("gan", GAN_RMSES),
    ):
        reports += [stub_report(s, model, r) for s, r in zip(SYMBOLS, rmses)]
    return reports


def test_aggregate_published_values():
    agg = ev.aggregate(published_reports())
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


def test_aggregate_missing_cell_names_gap():
    reports = published_reports()[:-1]
    with pytest.raises(DataError) as e:
        ev.aggregate(reports)
    assert "A6" in str(e.value) and "gan" in str(e.value)


def test_aggregate_duplicate_cell_errors():
    reports = published_reports()
    reports.append(stub_report("A0", "arima", 1.0))
    with pytest.raises(DataError):
        ev.aggregate(reports)


def test_aggregate_tie_credits_all_models():
    reports = [
        stub_report("X", "arima", 2.0),
        stub_report("X", "lstm", 2.0),
        stub_report("X", "gan", 5.0),
    ]
    agg = ev.aggregate(reports)
    assert agg.wins == {"arima": 1, "lstm": 1, "gan": 0}
    assert agg.ties == [("X", ["arima", "lstm"])]


def test_aggregate_even_count_median():
    reports = []
    for i, rmse in enumerate([1.0, 2.0, 3.0, 10.0]):
        reports.append(stub_report(f"S{i}", "arima", rmse))
    agg = ev.aggregate(reports)
    assert agg.median_rmse["arima"] == pytest.approx(2.5)


def test_aggregate_csv_format():
    agg = ev.aggregate(published_reports())
    lines = agg.to_csv().strip().split("\n")
    assert lines[0] == "model,mean_rmse,median_rmse,wins"
    assert len(lines) == 4
    assert lines[1].startswith("arima,") and lines[1].endswith(",0")


def test_report_rejects_unknown_model_name():
    with pytest.raises(UsageError):
        stub_report("X", "prophet", 1.0)
