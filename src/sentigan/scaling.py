"""Min-max feature scaling with leakage-free fit and exact inverse.

Maps train-min/max to [0, 1]; a model that reads another range (the GAN's
tanh range) maps to and from it itself. Parameters are a pure function of
the partition they were fitted on; values outside the fitted range
extrapolate rather than clip. Features lie on the last axis of the data, so
a stack of windows (N, L, F) scales as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLOSE_COLUMN, FEATURE_COLUMNS, finite_floats
from .errors import DataError, DimensionError


@dataclass
class ScalerParams:
    per_feature_min: np.ndarray
    per_feature_max: np.ndarray

    def to_dict(self):
        return {
            "per_feature_min": self.per_feature_min.tolist(),
            "per_feature_max": self.per_feature_max.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        """A windowed model's scaler as its artifact stores it. It must be
        present and span the FEATURE_COLUMNS."""
        if d is None:
            raise DataError("no fitted scaler")
        lo = finite_floats(d["per_feature_min"], "scaler per_feature_min")
        hi = finite_floats(d["per_feature_max"], "scaler per_feature_max")
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise DimensionError("scaler per_feature_min and per_feature_max",
                                 "two 1-d lists of one length", (lo.shape, hi.shape))
        if len(lo) != len(FEATURE_COLUMNS):
            raise DataError(f"scaler spans {len(lo)} features, not {len(FEATURE_COLUMNS)}")
        return cls(per_feature_min=lo, per_feature_max=hi)


def scaler_fit(data) -> ScalerParams:
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DataError("cannot fit scaler on empty data")
    rows = arr.reshape(-1, arr.shape[-1])
    return ScalerParams(per_feature_min=rows.min(axis=0), per_feature_max=rows.max(axis=0))


def scaler_fit_windows(histories, targets) -> ScalerParams:
    """A windowed model's scaler: fitted on its training windows' history
    rows (N, L, F) and target rows (N, F) together."""
    return scaler_fit(np.concatenate([histories, targets[:, None, :]], axis=1))


def scaler_transform(params: ScalerParams, data):
    """Map to [0, 1] relative to the fitted range.

    Degenerate constant features map to the range midpoint 0.5."""
    arr = np.asarray(data, dtype=float)
    n = params.per_feature_min.shape[0]
    if arr.shape[-1] != n:
        raise DimensionError("scaler column count", n, arr.shape[-1])
    span = params.per_feature_max - params.per_feature_min
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    unit = (arr - params.per_feature_min) / safe_span
    return np.where(degenerate, 0.5, unit)


def close_inverse(params: ScalerParams, unit):
    """Closes on the original price scale from their [0, 1] values; a
    constant close column comes back as the constant."""
    lo = params.per_feature_min[CLOSE_COLUMN]
    hi = params.per_feature_max[CLOSE_COLUMN]
    return lo + unit * (hi - lo)
