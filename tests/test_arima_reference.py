"""ARIMA holdout forecasts against a per-prefix reference: each target's
history differenced and filtered again, one forecast at a time, as the
harness computed them before it took the residuals once over the series.
On every order with p, q <= 3 and d in {0, 1, 2}, over the fleet fixture's
closes and long random walks, the one pass must give bitwise-equal
forecasts."""

from pathlib import Path

import numpy as np
import pytest

from sentigan import arima
from sentigan.arima import ArimaModel, ArimaOrder
from sentigan.data import CLOSE_COLUMN, load_ohlcv, repair_missing, utf8_lines
from sentigan.eval import SPLITS

FLEET = Path(__file__).parent / "fixtures" / "fleet"
ORDERS = [(p, d, q) for d in (0, 1, 2) for p in range(4) for q in range(4)]


def reference_forecast(model, history):
    """The forecast after `history`, from its own differencing and residual
    recursion."""
    y = np.asarray(history, dtype=float)
    p, d, q = model.order.p, model.order.d, model.order.q
    w = np.diff(y, n=d) if d else y
    e = arima._css_residuals(w, model.intercept, model.ar_coeffs, model.ma_coeffs)
    fw = model.intercept
    for i in range(1, p + 1):
        fw += model.ar_coeffs[i - 1] * w[len(w) - i]
    for j in range(1, q + 1):
        fw += model.ma_coeffs[j - 1] * e[len(e) - j]
    if d == 0:
        return float(fw)
    if d == 1:
        return float(y[-1] + fw)
    return float(y[-1] + (y[-1] - y[-2]) + fw)


SERIES = [f"fleet-{symbol}" for symbol in
          ("ALPHA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT", "GOLF")] + [
    f"walk-{n}" for n in (750, 1250, 1750)]


def series(name):
    """A fleet asset's repaired closes, or a random walk of n values."""
    kind, arg = name.split("-")
    if kind == "walk":
        return 100.0 + np.cumsum(np.random.default_rng(int(arg)).normal(size=int(arg)))
    path = FLEET / f"{arg}.csv"
    dates, values, _ = load_ohlcv(utf8_lines(path), path)
    return repair_missing(dates, values)[1][:, CLOSE_COLUMN]


def model_of(order, rng):
    """Small random coefficients: the sum of |theta| stays below 0.9, so the
    MA polynomial is invertible."""
    p, d, q = order
    return ArimaModel(ArimaOrder(p, d, q), np.concatenate(
        ([rng.normal(0.0, 0.1)], rng.uniform(-0.3, 0.3, p), rng.uniform(-0.3, 0.3, q))))


@pytest.mark.parametrize("name", SERIES)
def test_one_pass_equals_the_per_prefix_reference_bitwise(name):
    y = series(name)
    start = SPLITS["arima"](len(y))
    rng = np.random.default_rng(len(y))
    unequal = []
    for order in ORDERS:
        model = model_of(order, rng)
        want = np.array([reference_forecast(model, y[:t]) for t in range(start, len(y))])
        got = arima.rolling_forecasts(model, y, start)
        singles = [arima.forecast_one_step(model, y[:t]) for t in range(start, len(y))]
        if not (np.array_equal(got, want) and singles == want.tolist()):
            unequal.append(order)
    assert not unequal, unequal


@pytest.mark.parametrize("order", [(3, 1, 3), (2, 2, 1), (0, 0, 2), (3, 0, 0)])
def test_shortest_history_equals_the_reference(order):
    # the first target reads the earliest residual, e[0]
    p, d, q = order
    y = 100.0 + np.cumsum(np.random.default_rng(5).normal(size=40))
    model = model_of(order, np.random.default_rng(6))
    shortest = p + d + max(q, 1)
    want = [reference_forecast(model, y[:t]) for t in range(shortest, len(y))]
    assert arima.rolling_forecasts(model, y, shortest).tolist() == want
