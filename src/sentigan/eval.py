"""Forecast metrics, per-asset evaluation, cross-asset aggregation.

Metrics are the standard regression measures (MAE, MSE, RMSE, MAPE as a
fraction). Evaluation runs a trained artifact over the held-out partition
of an aligned dataset and refuses partitions that do not match the one the
artifact was trained on. Aggregation produces mean/median RMSE and win
counts per model across assets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date as Date

import numpy as np

from . import arima as arima_mod
from . import gan as gan_mod
from . import lstm as lstm_mod
from .data import (CLOSE_COLUMN, AlignedDataset, Windows, finite_floats, make_windows,
                   split_boundary)
from .errors import DataError, DimensionError, UsageError
from .scaling import scaler_fit_windows

MODEL_NAMES = ("arima", "lstm", "gan")


@dataclass
class MetricSet:
    mae: float
    mse: float
    rmse: float
    mape: float | None
    mape_omitted: bool = False

    def to_dict(self):
        return {"mae": self.mae, "mse": self.mse, "rmse": self.rmse,
                "mape": self.mape, "mape_omitted": self.mape_omitted}

    @classmethod
    def from_dict(cls, d):
        values = [d["mae"], d["mse"], d["rmse"], d["mape"]]
        finite_floats(values if values[-1] is not None else values[:-1], "metrics")
        return cls(*values, d.get("mape_omitted", False))


@dataclass
class ForecastReport:
    symbol: str
    model: str
    rows: list  # (date, predicted close, actual close)
    metrics: MetricSet

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise UsageError(f"unknown model name {self.model!r}")

    def to_dict(self):
        return {
            "symbol": self.symbol,
            "model": self.model,
            "rows": [
                {"date": d.isoformat(), "predicted": p, "actual": a}
                for d, p, a in self.rows
            ],
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        rows = [(Date.fromisoformat(r["date"]), float(r["predicted"]), float(r["actual"]))
                for r in d["rows"]]
        finite_floats([r[1:] for r in rows], "report rows")
        return cls(d["symbol"], d["model"], rows, MetricSet.from_dict(d["metrics"]))


@dataclass
class AggregateReport:
    mean_rmse: dict  # model -> real
    median_rmse: dict
    wins: dict
    ties: list = field(default_factory=list)  # (symbol, [tied models])

    def to_csv(self) -> str:
        lines = ["model,mean_rmse,median_rmse,wins"]
        for model in MODEL_NAMES:
            if model in self.mean_rmse:
                lines.append(
                    f"{model},{self.mean_rmse[model]:.6g},"
                    f"{self.median_rmse[model]:.6g},{self.wins[model]}"
                )
        return "\n".join(lines) + "\n"


def metrics(predicted, actual) -> MetricSet:
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise DimensionError("metrics input length", actual.shape, predicted.shape)
    if predicted.size == 0:
        raise DataError("metrics need at least one observation")
    err = predicted - actual
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    rmse = float(np.sqrt(mse))
    if np.any(actual == 0.0):
        return MetricSet(mae, mse, rmse, mape=None, mape_omitted=True)
    with np.errstate(over="ignore"):
        mape = float(np.mean(np.abs(err / actual)))
    return MetricSet(mae, mse, rmse, mape=mape)


def _check_chronological(aligned: AlignedDataset):
    dates = aligned.dates
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DataError(f"{aligned.symbol}: dates are not strictly increasing")


def _check_train_scaler(scaler, windows: Windows, mode, what):
    """The artifact's scaler must match one fitted on the evaluation-side
    train partition, else training and evaluation partitions disagree."""
    expected = scaler_fit_windows(windows.histories, windows.targets, mode)
    if (
        scaler is None
        or scaler.mode != mode
        or not np.allclose(scaler.per_feature_min, expected.per_feature_min)
        or not np.allclose(scaler.per_feature_max, expected.per_feature_max)
    ):
        raise DataError(f"{what}: artifact was not trained on this train partition")


def _evaluate_arima(model, aligned, policy):
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = split_boundary(len(closes), policy)
    n_tail = len(model.tail_values)
    if n_tail and not np.allclose(model.tail_values, closes[:boundary][-n_tail:]):
        raise DataError("arima: artifact was not trained on this train partition")
    preds = arima_mod.rolling_forecasts(model, closes, boundary)
    return [
        (aligned.dates[boundary + i], float(preds[i]), float(closes[boundary + i]))
        for i in range(len(preds))
    ]


def _evaluate_windowed(name, predict, artifact, mode, aligned, policy, window_length):
    windows = make_windows(aligned, window_length)
    boundary = split_boundary(len(windows), policy)
    _check_train_scaler(artifact.scaler, windows[:boundary], mode, name)
    holdout = windows[boundary:]
    return [
        (d, float(p), float(a))
        for d, p, a in zip(holdout.dates, predict(artifact, holdout),
                           holdout.targets[:, CLOSE_COLUMN])
    ]


def evaluate(model_name: str, artifact, aligned: AlignedDataset, policy: str,
             window_length: int | None = None) -> ForecastReport:
    """One-step forecasts over the held-out partition; everything before the
    boundary is training-side context only."""
    if model_name not in MODEL_NAMES:
        raise UsageError(f"unknown model name {model_name!r}")
    if model_name != "arima" and window_length is None:
        raise UsageError(f"{model_name} evaluation needs a window_length")
    _check_chronological(aligned)
    if model_name == "arima":
        rows = _evaluate_arima(artifact, aligned, policy)
    else:
        predict, mode = {"lstm": (lstm_mod.predict, "unit"),
                         "gan": (gan_mod.predict, "signed")}[model_name]
        rows = _evaluate_windowed(model_name, predict, artifact, mode, aligned, policy,
                                  window_length)
    preds = [r[1] for r in rows]
    actuals = [r[2] for r in rows]
    return ForecastReport(aligned.symbol, model_name, rows, metrics(preds, actuals))


def aggregate(reports: list[ForecastReport]) -> AggregateReport:
    """Mean/median RMSE and win counts per model; exact RMSE ties credit
    every tied model and are logged."""
    by_cell = {}
    for r in reports:
        key = (r.symbol, r.model)
        if key in by_cell:
            raise DataError(f"duplicate report for asset {r.symbol!r} model {r.model!r}")
        by_cell[key] = r
    symbols = sorted({s for s, _ in by_cell})
    models = [m for m in MODEL_NAMES if any(k[1] == m for k in by_cell)]
    for s in symbols:
        for m in models:
            if (s, m) not in by_cell:
                raise DataError(f"missing report for asset {s!r} model {m!r}")
    mean_rmse, median_rmse, wins = {}, {}, {m: 0 for m in models}
    for m in models:
        rmses = np.array([by_cell[(s, m)].metrics.rmse for s in symbols])
        mean_rmse[m] = float(np.mean(rmses))
        median_rmse[m] = float(np.median(rmses))
    ties = []
    for s in symbols:
        best = min(by_cell[(s, m)].metrics.rmse for m in models)
        winners = [m for m in models if by_cell[(s, m)].metrics.rmse == best]
        for m in winners:
            wins[m] += 1
        if len(winners) > 1:
            ties.append((s, winners))
    return AggregateReport(mean_rmse, median_rmse, wins, ties)
