"""Min-max feature scaling with leakage-free fit and exact inverse.

Two modes: "unit" maps train-min/max to [0, 1]; "signed" maps them to
[-1, 1]. Parameters are a pure function of the partition they were fitted
on; values outside the fitted range extrapolate rather than clip. Features
lie on the last axis of the data, so a stack of windows (N, L, F) scales
as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FEATURE_COLUMNS, finite_floats
from .errors import DataError, DimensionError

MODES = ("unit", "signed")


@dataclass
class ScalerParams:
    mode: str
    per_feature_min: np.ndarray
    per_feature_max: np.ndarray

    def to_dict(self):
        return {
            "mode": self.mode,
            "per_feature_min": self.per_feature_min.tolist(),
            "per_feature_max": self.per_feature_max.tolist(),
        }

    @classmethod
    def from_dict(cls, d, mode: str):
        """A windowed model's scaler as its artifact stores it. It must be
        present, span the FEATURE_COLUMNS and have been fitted in `mode`,
        the model's own."""
        if d is None:
            raise DataError("no fitted scaler")
        if d["mode"] != mode:
            raise DataError(f"scaler mode must be {mode!r}, got {d['mode']!r}")
        lo = finite_floats(d["per_feature_min"], "scaler per_feature_min")
        hi = finite_floats(d["per_feature_max"], "scaler per_feature_max")
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise DimensionError("scaler per_feature_min and per_feature_max",
                                 "two 1-d lists of one length", (lo.shape, hi.shape))
        if len(lo) != len(FEATURE_COLUMNS):
            raise DataError(f"scaler spans {len(lo)} features, not {len(FEATURE_COLUMNS)}")
        return cls(mode=mode, per_feature_min=lo, per_feature_max=hi)


def scaler_fit(data, mode: str = "unit") -> ScalerParams:
    if mode not in MODES:
        raise DataError(f"unknown scaler mode {mode!r}")
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DataError("cannot fit scaler on empty data")
    rows = arr.reshape(-1, arr.shape[-1])
    return ScalerParams(mode, per_feature_min=rows.min(axis=0),
                        per_feature_max=rows.max(axis=0))


def scaler_fit_windows(histories, targets, mode: str) -> ScalerParams:
    """A windowed model's scaler: fitted on its training windows' history
    rows (N, L, F) and target rows (N, F) together."""
    return scaler_fit(np.concatenate([histories, targets[:, None, :]], axis=1), mode)


def _check_cols(params: ScalerParams, arr: np.ndarray):
    n = params.per_feature_min.shape[0]
    if arr.shape[-1] != n:
        raise DimensionError("scaler column count", n, arr.shape[-1])


def scaler_transform(params: ScalerParams, data):
    """Map to [0,1] (unit) or [-1,1] (signed) relative to the fitted range.

    Degenerate constant features map to the range midpoint (0.5 / 0)."""
    arr = np.asarray(data, dtype=float)
    _check_cols(params, arr)
    span = params.per_feature_max - params.per_feature_min
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    unit = (arr - params.per_feature_min) / safe_span
    unit = np.where(degenerate, 0.5, unit)
    return unit if params.mode == "unit" else 2.0 * unit - 1.0


def scaler_inverse(params: ScalerParams, data):
    arr = np.asarray(data, dtype=float)
    _check_cols(params, arr)
    unit = arr if params.mode == "unit" else (arr + 1.0) / 2.0
    span = params.per_feature_max - params.per_feature_min
    out = params.per_feature_min + unit * span
    degenerate = span == 0
    if degenerate.any():
        out = np.where(degenerate, params.per_feature_min, out)
    return out
