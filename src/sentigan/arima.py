"""ARIMA baseline: stationarity testing, order selection, CSS fitting,
one-step forecasting on the original price scale.

Estimation is conditional sum of squares on the d-times differenced series
(pre-sample residuals fixed at zero), minimized by L-BFGS-B with its exact
gradient from zero initialization. Exact likelihood is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize

from .data import flat_floats
from .errors import DataError, TrainingError, UsageError
from .nn import carve

ADF_CRITICAL_5PCT = -2.86  # constant-only case
# the largest AR and MA orders of select_order's (p, q) grid
P_MAX = Q_MAX = 3


@dataclass
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        # a float or a bool passes the range tests, and then fails np.diff
        if (not all(type(v) is int for v in (self.p, self.d, self.q))
                or self.p < 0 or self.q < 0 or self.d not in (0, 1, 2)):
            raise DataError(f"invalid ARIMA order ({self.p},{self.d},{self.q})")


class ArimaModel:
    """The order and the vector `params` = [c, φ…, θ…] that `fit` minimizes
    over. `ar_coeffs` and `ma_coeffs` are views of `params`, and `intercept`
    its first value, carved once."""

    def __init__(self, order: ArimaOrder, params: np.ndarray):
        self.order, self.params = order, params
        (self.intercept,), self.ar_coeffs, self.ma_coeffs = carve(
            params, [(1,), (order.p,), (order.q,)])

    def to_dict(self):
        return {"order": [self.order.p, self.order.d, self.order.q], "params": self.params.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(ArimaOrder(*d["order"]), flat_floats(d["params"], "ARIMA params"))


def adf_statistic(series) -> float:
    """Augmented Dickey-Fuller t-statistic of the unit-root coefficient, in a
    regression with constant and floor(n^(1/3)) lagged differences; NaN where
    the regression is degenerate, as for a constant series, or the differences
    overflow. The series is stationary iff the statistic falls below
    ADF_CRITICAL_5PCT."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    lag = int(np.floor(n ** (1.0 / 3.0)))
    if n <= lag + 10:
        raise DataError(f"series too short for ADF with lag {lag}: {n} <= {lag + 10}")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ptp(y) == 0.0 or not np.isfinite(np.diff(y)).all():
            return float("nan")  # constant, or differences LAPACK's lstsq cannot solve
    # the statistic is invariant to y's shift and scale; on [0, 1] the rank
    # cutoffs of lstsq and pinv never bite against the constant column
    y = (y - y.min()) / np.ptp(y)
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
        return float("nan")
    s2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.pinv(x.T @ x)
    se = np.sqrt(s2 * xtx_inv[1, 1])
    return float(coef[1] / se) if se > 0 else float("nan")


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


def fit(train, order: ArimaOrder) -> ArimaModel:
    """Minimize the conditional sum of squares from zero initialization."""
    y = np.asarray(train, dtype=float)
    p, d, q = order.p, order.d, order.q
    if len(y) <= p + q + d + 10:
        raise DataError(f"train length {len(y)} too short for order ({p},{d},{q})")
    w = np.diff(y, n=d)
    if p == 0 and q == 0:
        # null model has a closed form: intercept = mean of differenced series
        params = np.array([np.mean(w)])
    else:
        result = minimize(_css, np.zeros(1 + p + q), args=(w, p, q), jac=True,
                          method="L-BFGS-B", options={"maxiter": 500},
                          bounds=[(None, None)] + [(-0.99, 0.99)] * (p + q))
        if not result.success and result.status != 1:  # status 1 = maxiter
            raise TrainingError(
                f"CSS optimization failed for order ({p},{d},{q}): {result.message}; "
                f"|grad| = {np.linalg.norm(result.jac):.3e}"
            )
        params = result.x
    return ArimaModel(order, params)


def aic(css_value: float, n: int, p: int, q: int) -> float:
    return n * np.log(max(css_value, 1e-300) / n) + 2 * (p + q + 1)


ROOT_MARGIN = 1.05


def _admissible(ar, ma) -> bool:
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
        if len(roots) and np.min(np.abs(roots)) <= ROOT_MARGIN:
            return False
    return True


def select_differencing(train) -> int:
    y = np.asarray(train, dtype=float)
    for d in range(3):
        if adf_statistic(np.diff(y, n=d)) < ADF_CRITICAL_5PCT:
            return d
    raise TrainingError("no differencing order in 0..2 achieves stationarity")


def select_order(train) -> ArimaModel:
    """The model fitted at the selected order: smallest d passing the
    stationarity gate, then AIC argmin over the (p, q) grid up to (P_MAX,
    Q_MAX); ties broken by smaller p+q, then smaller p."""
    y = np.asarray(train, dtype=float)
    if len(y) < 50:
        raise DataError(f"select_order needs at least 50 observations, got {len(y)}")
    d = select_differencing(y)
    w = np.diff(y, n=d)
    candidates = {}  # (aic, p + q, p, q) -> fitted model
    for p in range(P_MAX + 1):
        for q in range(Q_MAX + 1):
            try:
                model = fit(y, ArimaOrder(p, d, q))
            except (TrainingError, DataError):
                continue
            if not _admissible(model.ar_coeffs, model.ma_coeffs):
                continue
            e = _css_residuals(w, model.intercept, model.ar_coeffs, model.ma_coeffs)
            # score every cell on the same residual sample (drop the first
            # P_MAX - p residuals) so AIC values are comparable across orders
            e = e[P_MAX - p :]
            score = aic(float(e @ e), len(e), p, q)
            if np.isfinite(score):  # residual squares that overflow are no fit
                candidates[(score, p + q, p, q)] = model
    if not candidates:
        raise TrainingError("order selection failed on the whole (p, q) grid")
    return candidates[min(candidates)]


def forecast_one_step(model: ArimaModel, history) -> float:
    """Point forecast of the value after `history` on the original scale."""
    y = np.append(np.asarray(history, dtype=float), np.nan)  # the target, never read
    return float(rolling_forecasts(model, y, len(y) - 1)[0])


def rolling_forecasts(model: ArimaModel, full_series, test_start: int) -> np.ndarray:
    """One-step forecasts over full_series[test_start:], each conditioning on
    all actual values before its target.

    The CSS residuals are causal, so those of any prefix are the prefix of
    those of full_series[:-1]: one differencing and one residual recursion
    serve every target. A forecast reads the p differences and q residuals
    before its target, so the first needs p + d + q values before it for no
    residual to be pre-sample (p + d + 1 when q = 0)."""
    y = np.asarray(full_series, dtype=float)
    p, d, q = model.order.p, model.order.d, model.order.q
    if test_start < p + d + max(q, 1):
        raise DataError(f"order ({p}, {d}, {q}) needs {p + d + max(q, 1)} values before "
                        f"its first forecast, got {test_start}")
    w = np.diff(y[:-1], n=d)
    e = _css_residuals(w, model.intercept, model.ar_coeffs, model.ma_coeffs)
    at = np.arange(test_start, len(y)) - d  # the length of each target's w
    fw = np.full(len(at), model.intercept)
    for i in range(1, p + 1):
        fw += model.ar_coeffs[i - 1] * w[at - i]
    for j in range(1, q + 1):
        fw += model.ma_coeffs[j - 1] * e[at - p - j]
    # integrate the d-times differenced forecast back to the level
    last = y[at + d - 1]
    if d == 0:
        return fw
    if d == 1:
        return last + fw
    return last + (last - y[at + d - 2]) + fw
