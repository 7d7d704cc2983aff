"""Forecast metrics, per-asset evaluation, cross-asset aggregation.

Metrics are the standard regression measures (MAE, MSE, RMSE, MAPE as a
fraction). `partition` applies `SPLITS`, each model's one train/holdout
split: of training, of the stamp the command line checks an artifact by,
and of evaluation, which scores a trained artifact on the held-out items.
Aggregation produces mean/median RMSE and win counts per model across assets.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from . import arima as arima_mod
from . import gan as gan_mod
from . import lstm as lstm_mod
from .data import CLOSE_COLUMN, AlignedDataset, csv_text, finite_floats, make_windows
from .errors import DataError, DimensionError, UsageError

MODEL_NAMES = ("arima", "lstm", "gan")
# each model's holdout: the index of the first held-out of `total` items
SPLITS = {"arima": lambda total: int(np.floor(0.9 * total)),
          "lstm": lambda total: int(np.floor(0.7 * total)),
          "gan": lambda total: total - 20}


@dataclass
class MetricSet:
    mae: float
    mse: float
    rmse: float
    mape: float | None  # None where an actual close is 0

    def to_dict(self):
        return {"mae": self.mae, "mse": self.mse, "rmse": self.rmse,
                "mape": self.mape, "mape_omitted": self.mape is None}

    @classmethod
    def from_dict(cls, d):
        values = [d["mae"], d["mse"], d["rmse"], d["mape"]]
        finite_floats(values if values[-1] is not None else values[:-1], "metrics")
        return cls(*values)


@dataclass
class ForecastReport:
    symbol: str
    model: str
    dates: list[Date]  # the holdout's N target dates
    predicted: np.ndarray  # (N,) closes
    actual: np.ndarray  # (N,) closes
    metrics: MetricSet

    def to_dict(self):
        return {
            "symbol": self.symbol,
            "model": self.model,
            "rows": [
                {"date": d.isoformat(), "predicted": p, "actual": a}
                for d, p, a in zip(self.dates, self.predicted.tolist(), self.actual.tolist())
            ],
            "metrics": self.metrics.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        rows = d["rows"]
        predicted, actual = (finite_floats([r[key] for r in rows], f"report {key}")
                             for key in ("predicted", "actual"))
        if predicted.ndim != 1 or actual.ndim != 1:
            raise DataError("each report row must hold one predicted and one actual close")
        return cls(d["symbol"], d["model"], [Date.fromisoformat(r["date"]) for r in rows],
                   predicted, actual, MetricSet.from_dict(d["metrics"]))


@dataclass
class AggregateReport:
    mean_rmse: dict  # model -> real
    median_rmse: dict
    wins: dict
    ties: list  # (symbol, [tied models])

    def to_csv(self) -> str:
        return csv_text("model,mean_rmse,median_rmse,wins",
                        ([m, f"{self.mean_rmse[m]:.6g}", f"{self.median_rmse[m]:.6g}",
                          self.wins[m]] for m in MODEL_NAMES))


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
        return MetricSet(mae, mse, rmse, mape=None)
    with np.errstate(over="ignore"):
        mape = float(np.mean(np.abs(err / actual)))
    return MetricSet(mae, mse, rmse, mape=mape)


def partition(model_name: str, aligned: AlignedDataset, window_length: int):
    """What `model_name` reads of `aligned` and the index of its first held-out
    item: the (T,) closes for ARIMA, the T - L windows of length L otherwise.
    Held-out item 0 is the target of row T - len(items) + boundary."""
    items = (aligned.features[:, CLOSE_COLUMN] if model_name == "arima"
             else make_windows(aligned, window_length))
    boundary = SPLITS[model_name](len(items))
    if boundary <= 0 or boundary >= len(items):
        raise DataError(f"the split of {len(items)} items leaves an empty partition")
    return items, boundary


def evaluate(model_name: str, artifact, aligned: AlignedDataset,
             window_length: int) -> ForecastReport:
    """One-step forecasts of the held-out items of `partition`; the items
    before the boundary are training-side context only."""
    if model_name not in MODEL_NAMES:
        raise UsageError(f"unknown model name {model_name!r}")
    items, boundary = partition(model_name, aligned, window_length)
    if model_name == "arima":
        predicted = arima_mod.rolling_forecasts(artifact, items, boundary)
    else:
        predict = lstm_mod.predict if model_name == "lstm" else gan_mod.predict
        predicted = predict(artifact, items[boundary:])
    first = len(aligned.dates) - len(items) + boundary  # the first held-out target's row
    dates, actual = aligned.dates[first:], aligned.features[first:, CLOSE_COLUMN]
    scores = metrics(predicted, actual)
    if not np.isfinite(np.append(predicted, scores.mse)).all():
        raise DataError(f"{model_name}: forecasts or their squared errors are not finite")
    return ForecastReport(aligned.symbol, model_name, dates, predicted, actual, scores)


def aggregate(grid: list[list[ForecastReport]]) -> AggregateReport:
    """Mean/median RMSE and win counts per model over `grid`, a row per asset
    of its reports in MODEL_NAMES order; an exact RMSE tie credits every tied
    model and is logged."""
    # (models, assets); each model's mean is np.mean of its 1-D row, whose
    # pairwise sum an axis-0 mean of the (assets, models) array would not match
    rmse = np.array([[r.metrics.rmse for r in row] for row in grid]).T
    won = rmse == rmse.min(axis=0)
    ties = [(row[0].symbol, [m for m, w in zip(MODEL_NAMES, col) if w])
            for row, col in zip(grid, won.T) if col.sum() > 1]
    return AggregateReport({m: float(np.mean(v)) for m, v in zip(MODEL_NAMES, rmse)},
                           {m: float(np.median(v)) for m, v in zip(MODEL_NAMES, rmse)},
                           {m: int(n) for m, n in zip(MODEL_NAMES, won.sum(axis=1))}, ties)
