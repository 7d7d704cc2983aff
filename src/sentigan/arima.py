"""ARIMA baseline: stationarity testing, order selection, CSS fitting,
one-step forecasting on the original price scale.

Estimation is conditional sum of squares on the d-times differenced series
(pre-sample residuals fixed at zero), minimized by L-BFGS-B with its exact
gradient from zero initialization. Exact likelihood is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize

from .data import finite_floats
from .errors import DataError, TrainingError, UsageError

ADF_CRITICAL_5PCT = -2.86  # constant-only case


@dataclass
class AdfResult:
    statistic: float
    is_stationary: bool
    zero_variance: bool = False


@dataclass
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.d not in (0, 1, 2):
            raise DataError(f"invalid ARIMA order ({self.p},{self.d},{self.q})")


@dataclass
class ArimaModel:
    order: ArimaOrder
    intercept: float
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    tail_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_dict(self):
        return {
            "order": [self.order.p, self.order.d, self.order.q],
            "intercept": self.intercept,
            "ar_coeffs": np.asarray(self.ar_coeffs).tolist(),
            "ma_coeffs": np.asarray(self.ma_coeffs).tolist(),
            "tail_values": np.asarray(self.tail_values).tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        order = ArimaOrder(*d["order"])
        keys = ("intercept", "ar_coeffs", "ma_coeffs", "tail_values")
        values = [finite_floats(d[key], key) for key in keys]
        shapes = [v.shape for v in values]
        expected = [(), (order.p,), (order.q,), (max(order.p, order.q) + order.d + 1,)]
        if shapes != expected:
            raise DataError(f"order ({order.p},{order.d},{order.q}) needs {', '.join(keys)} "
                            f"of shapes {expected}, got {shapes}")
        intercept, ar, ma, tail = values
        return cls(order, float(intercept), ar, ma, tail_values=tail)


def adf_stationarity_test(series, lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller regression with constant; stationary iff the
    unit-root t-statistic falls below the fixed 5% critical value."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    if lag is None:
        lag = int(np.floor(n ** (1.0 / 3.0)))
    if n <= lag + 10:
        raise DataError(f"series too short for ADF with lag {lag}: {n} <= {lag + 10}")
    if np.ptp(y) == 0.0:
        return AdfResult(statistic=float("nan"), is_stationary=False, zero_variance=True)
    dy = np.diff(y)
    # regress dy[t] on [1, y[t-1], dy[t-1..t-lag]]
    rows = len(dy) - lag
    x = np.empty((rows, 2 + lag))
    x[:, 0] = 1.0
    x[:, 1] = y[lag:-1]
    for i in range(1, lag + 1):
        x[:, 1 + i] = dy[lag - i : len(dy) - i]
    target = dy[lag:]
    coef, _, rank, _ = np.linalg.lstsq(x, target, rcond=None)
    resid = target - x @ coef
    dof = rows - x.shape[1]
    if dof <= 0 or rank < x.shape[1]:
        return AdfResult(statistic=float("nan"), is_stationary=False, zero_variance=True)
    s2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.pinv(x.T @ x)
    se = np.sqrt(s2 * xtx_inv[1, 1])
    stat = float(coef[1] / se) if se > 0 else float("nan")
    return AdfResult(statistic=stat, is_stationary=bool(stat < ADF_CRITICAL_5PCT))


def _ma_solve(ma, rows):
    """Apply the inverse MA polynomial along the last axis of `rows`, in place.

    e[t] = r[t] - sum_j ma[j] * e[t-j] with pre-sample e zero is the
    unit-lower-triangular banded Toeplitz system (1 + theta(B)) e = r; one
    LAPACK dtbtrs call solves it by forward substitution for every row.
    Band row k of `ab` holds theta_k; the unit diagonal is never read.
    A C-contiguous float64 `rows` is solved in place, with no copy, and
    returned."""
    n = rows.shape[-1]
    ab = np.ones((n, len(ma) + 1))
    ab[:, 1:] = ma
    e, info = dtbtrs(ab.T, rows.T, uplo="L", diag="U", overwrite_b=1)
    if info:
        raise UsageError(f"dtbtrs rejected argument {-info}")
    return e.T


def _css_residuals(w, intercept, ar, ma):
    """Conditional residuals of the differenced series: first p observations
    condition the recursion, pre-sample residuals are zero."""
    p, q = len(ar), len(ma)
    rhs = w[p:] - intercept
    for i in range(1, p + 1):
        rhs = rhs - ar[i - 1] * w[p - i : len(w) - i]
    if q == 0:
        return rhs
    return _ma_solve(ma, rhs)


def _css(params, w, p, q):
    """The conditional sum of squares and its exact gradient.

    Each residual sensitivity is a lagged series filtered by the inverse MA
    polynomial: de/dc = -theta(B)^-1 1, de/dphi_i = -theta(B)^-1 w[t-i] and
    de/dtheta_j = -theta(B)^-1 e[t-j], with pre-sample residuals zero. The
    residuals and the stacked (1+p+q, n) sensitivities take one banded solve
    each (`_ma_solve`); the gradient is 2 sens @ e. Where the sum or the
    gradient overflows, the value is capped at 1e300 and the gradient points
    toward zero coefficients, so the optimizer never reads the point as a
    minimum."""
    ma = params[1 + p :]
    with np.errstate(over="ignore", invalid="ignore"):
        e = _css_residuals(w, params[0], params[1 : 1 + p], ma)
        n = len(e)
        sens = np.empty((1 + p + q, n))
        sens[0] = -1.0
        for i in range(1, p + 1):
            sens[i] = -w[p - i : len(w) - i]
        for j in range(1, q + 1):
            sens[p + j, :j] = 0.0
            sens[p + j, j:] = -e[: n - j]
        if q:
            sens = _ma_solve(ma, sens)
        sse = float(e @ e)
        grad = 2.0 * (sens @ e)
    if np.isfinite(sse) and np.isfinite(grad).all():
        return sse, grad
    return 1e300, np.where(params < 0, -1.0, 1.0)


def fit(train, order: ArimaOrder, max_iter: int = 500) -> ArimaModel:
    """Minimize the conditional sum of squares from zero initialization."""
    y = np.asarray(train, dtype=float)
    p, d, q = order.p, order.d, order.q
    if len(y) <= p + q + d + 10:
        raise DataError(f"train length {len(y)} too short for order ({p},{d},{q})")
    w = np.diff(y, n=d) if d else y.copy()
    x0 = np.zeros(1 + p + q)
    if p == 0 and q == 0:
        # null model has a closed form: intercept = mean of differenced series
        return ArimaModel(order, float(np.mean(w)), np.empty(0), np.empty(0),
                          tail_values=y[-(d + 1):].copy())
    bounds = [(None, None)] + [(-0.99, 0.99)] * (p + q)
    result = minimize(
        _css, x0, args=(w, p, q), jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": max_iter},
    )
    if not result.success and result.status != 1:  # status 1 = maxiter
        raise TrainingError(
            f"CSS optimization failed for order ({p},{d},{q}): {result.message}; "
            f"|grad| = {np.linalg.norm(result.jac):.3e}"
        )
    n_tail = max(p, q) + d + 1
    return ArimaModel(
        order, float(result.x[0]), result.x[1 : 1 + p].copy(), result.x[1 + p :].copy(),
        tail_values=y[-n_tail:].copy(),
    )


def aic(css_value: float, n: int, p: int, q: int) -> float:
    return n * np.log(max(css_value, 1e-300) / n) + 2 * (p + q + 1)


ROOT_MARGIN = 1.05


def _admissible(ar, ma, margin: float = ROOT_MARGIN) -> bool:
    """Stationarity/invertibility guard for order selection: all roots of the
    AR and MA polynomials must stay clearly outside the unit circle.

    CSS estimation can otherwise reward near-canceling AR/MA factors with
    near-unit roots that soak up conditioning transients and win the AIC
    comparison spuriously."""
    for coeffs, sign in ((ar, -1.0), (ma, 1.0)):
        if len(coeffs) == 0:
            continue
        poly = np.concatenate(([1.0], sign * np.asarray(coeffs)))  # 1 -/+ c1 B - ...
        roots = np.roots(poly[::-1])
        if len(roots) and np.min(np.abs(roots)) <= margin:
            return False
    return True


def select_differencing(train, max_d: int = 2) -> int:
    y = np.asarray(train, dtype=float)
    for d in range(max_d + 1):
        w = np.diff(y, n=d) if d else y
        if adf_stationarity_test(w).is_stationary:
            return d
    raise TrainingError(f"no differencing order in 0..{max_d} achieves stationarity")


def select_order(train, p_max: int = 3, q_max: int = 3) -> ArimaModel:
    """The model fitted at the selected order: smallest d passing the
    stationarity gate, then AIC argmin over the (p, q) grid; ties broken by
    smaller p+q, then smaller p."""
    y = np.asarray(train, dtype=float)
    if len(y) < 50:
        raise DataError(f"select_order needs at least 50 observations, got {len(y)}")
    d = select_differencing(y)
    w = np.diff(y, n=d) if d else y
    candidates = {}  # (aic, p + q, p, q) -> fitted model
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            try:
                model = fit(y, ArimaOrder(p, d, q))
            except (TrainingError, DataError):
                continue
            if not _admissible(model.ar_coeffs, model.ma_coeffs):
                continue
            e = _css_residuals(w, model.intercept, model.ar_coeffs, model.ma_coeffs)
            # score every cell on the same residual sample (drop the first
            # p_max - p residuals) so AIC values are comparable across orders
            e = e[p_max - p :]
            candidates[(aic(float(e @ e), len(e), p, q), p + q, p, q)] = model
    if not candidates:
        raise TrainingError("order selection failed on the whole (p, q) grid")
    return candidates[min(candidates)]


def forecast_one_step(model: ArimaModel, history) -> float:
    """Point forecast of the next value on the original scale, conditioning
    residual state on the supplied history (deterministic given inputs)."""
    y = np.asarray(history, dtype=float)
    p, d, q = model.order.p, model.order.d, model.order.q
    min_len = p + d + 1 if q == 0 else max(p, q) + d + 1
    if len(y) < min_len:
        raise UsageError(f"history length {len(y)} < required {min_len}")
    w = np.diff(y, n=d) if d else y
    e = _css_residuals(w, model.intercept, model.ar_coeffs, model.ma_coeffs)
    fw = model.intercept
    for i in range(1, p + 1):
        fw += model.ar_coeffs[i - 1] * w[len(w) - i]
    for j in range(1, q + 1):
        fw += model.ma_coeffs[j - 1] * e[len(e) - j]
    # integrate the d-times differenced forecast back to the level
    if d == 0:
        return float(fw)
    if d == 1:
        return float(y[-1] + fw)
    return float(y[-1] + (y[-1] - y[-2]) + fw)


def rolling_forecasts(model: ArimaModel, full_series, test_start: int) -> np.ndarray:
    """One-step forecasts over full_series[test_start:], each conditioning on
    all actual values before its target."""
    y = np.asarray(full_series, dtype=float)
    return np.array(
        [forecast_one_step(model, y[:t]) for t in range(test_start, len(y))]
    )
