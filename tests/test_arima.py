import numpy as np
import pytest

from gradcheck import numerical_gradient, relative_error
from sentigan import arima
from sentigan.arima import ArimaOrder
from sentigan.errors import DataError, UsageError


def simulate_ar1(n, phi, sigma=1.0, seed=0, const=0.0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = const + phi * y[t - 1] + rng.normal(0, sigma)
    return y


def simulate_ma1(n, theta, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.normal(0, sigma, size=n)
    y = e.copy()
    y[1:] += theta * e[:-1]
    return y


def random_walk(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n))


# ---------------------------------------------------------------- ADF


def test_adf_white_noise_stationary():
    hits = sum(
        arima.adf_stationarity_test(np.random.default_rng(s).normal(size=500)).is_stationary
        for s in range(100)
    )
    assert hits > 95


def test_adf_random_walk_not_stationary():
    hits = sum(
        not arima.adf_stationarity_test(random_walk(500, seed=s)).is_stationary
        for s in range(100)
    )
    assert hits >= 90


def test_adf_constant_series_zero_variance_diagnostic():
    result = arima.adf_stationarity_test(np.full(100, 3.0))
    assert result.zero_variance
    assert not result.is_stationary


def test_adf_too_short_errors():
    with pytest.raises(DataError):
        arima.adf_stationarity_test(np.arange(8.0), lag=4)


# ---------------------------------------------------------------- order selection


def test_select_order_ar1():
    hits = 0
    for seed in range(10):
        order = arima.select_order(simulate_ar1(1000, 0.8, seed=seed), p_max=3, q_max=3).order
        if order.p in (1, 2) and order.q <= 1 and order.d == 0:
            hits += 1
    assert hits >= 8


def test_select_order_random_walk_picks_d1():
    hits = sum(arima.select_order(random_walk(500, seed=s)).order.d == 1 for s in range(20))
    assert hits >= 18


def test_select_order_singleton_grid():
    order = arima.select_order(simulate_ar1(300, 0.5, seed=1), p_max=0, q_max=0).order
    assert (order.p, order.q) == (0, 0)


def test_select_order_prefers_null_on_white_noise():
    # in-sample CSS always shrinks with extra orders; the AIC penalty must
    # still favour the null model most of the time
    hits = 0
    trials = 100
    for seed in range(trials):
        y = np.random.default_rng(seed).normal(size=200)
        order = arima.select_order(y, p_max=1, q_max=1).order
        if (order.p, order.q) == (0, 0):
            hits += 1
    assert hits >= 0.7 * trials


def test_select_order_stationarity_gate():
    for seed in range(5):
        y = random_walk(400, seed=seed)
        order = arima.select_order(y).order
        w = np.diff(y, n=order.d) if order.d else y
        assert arima.adf_stationarity_test(w).is_stationary


def test_select_order_returns_the_fit_at_its_order():
    # the winning cell's fit is the model; refitting it changes nothing
    y = random_walk(300, seed=4)
    model = arima.select_order(y, p_max=2, q_max=2)
    assert model.to_dict() == arima.fit(y, model.order).to_dict()


def test_select_order_too_short_errors():
    with pytest.raises(DataError):
        arima.select_order(np.arange(30.0))


# ---------------------------------------------------------------- fitting


def test_fit_ar1_recovers_phi():
    estimates = [
        arima.fit(simulate_ar1(2000, 0.8, seed=s), ArimaOrder(1, 0, 0)).ar_coeffs[0]
        for s in range(5)
    ]
    assert all(0.75 <= est <= 0.85 for est in estimates)


def test_fit_ma1_recovers_theta():
    estimates = [
        arima.fit(simulate_ma1(2000, 0.5, seed=s), ArimaOrder(0, 0, 1)).ma_coeffs[0]
        for s in range(5)
    ]
    assert all(0.4 <= est <= 0.6 for est in estimates)


def test_fit_null_model_closed_form():
    rng = np.random.default_rng(4)
    y = rng.normal(5.0, 2.0, size=1000)
    model = arima.fit(y, ArimaOrder(0, 0, 0))
    assert model.intercept == pytest.approx(np.mean(y))


def test_css_overflowing_sum_is_capped():
    # every residual is finite, but their sum of squares overflows; a zero
    # gradient there would read as a minimum to the optimizer
    w = np.full(20, 1e160)
    value, grad = arima._css(np.zeros(1), w, 0, 0)
    assert value == 1e300
    assert np.isfinite(grad).all() and grad.any()


def test_css_non_invertible_ma_is_capped_with_a_finite_gradient():
    # |theta| > 1 makes the residual recursion explode past float range
    w = simulate_ma1(3000, 0.3, seed=6)
    value, grad = arima._css(np.array([0.0, 0.0, 1.5]), w, 1, 1)
    assert value == 1e300
    assert np.isfinite(grad).all() and grad.any()


@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (0, 2), (3, 0), (3, 3)])
def test_css_gradient_matches_central_differences(p, q):
    rng = np.random.default_rng(10 * p + q)
    w = simulate_ar1(300, 0.5, seed=p + q, const=0.3)
    params = np.concatenate(([0.2], rng.uniform(-0.3, 0.3, p + q)))
    _, grad = arima._css(params, w, p, q)
    numeric = numerical_gradient(lambda: arima._css(params, w, p, q)[0], params, h=1e-6)
    assert relative_error(grad, numeric) <= 1e-6


def ma_recursion(ma, r):
    """e[t] = r[t] - sum_j ma[j] * e[t-j] with pre-sample e zero, in plain Python."""
    e = []
    for t, value in enumerate(r):
        e.append(value - sum(ma[j - 1] * e[t - j] for j in range(1, len(ma) + 1) if t >= j))
    return np.array(e)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 215, 1200])
@pytest.mark.parametrize("stacked", [False, True], ids=["one_row", "1+p+q_rows"])
def test_ma_solve_matches_the_recursion(q, n, stacked):
    p = 2
    ma = np.array([0.6, -0.35, 0.2][:q])
    rng = np.random.default_rng(100 * q + n)
    r = rng.normal(size=(1 + p + q, n) if stacked else n)
    want = np.array([ma_recursion(ma, row) for row in np.atleast_2d(r)]).reshape(r.shape)
    got = arima._ma_solve(ma, r.copy())
    assert got.shape == r.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fit_too_short_errors():
    with pytest.raises(DataError):
        arima.fit(np.arange(10.0), ArimaOrder(2, 0, 2))


# ---------------------------------------------------------------- forecasting


def test_random_walk_forecast_is_last_value_plus_drift():
    y = random_walk(300, seed=2)
    model = arima.fit(y, ArimaOrder(0, 1, 0))
    forecast = arima.forecast_one_step(model, y)
    assert forecast == pytest.approx(y[-1] + model.intercept)


def test_ar1_forecast_recursion():
    model = arima.ArimaModel(
        ArimaOrder(1, 0, 0), intercept=0.5, ar_coeffs=np.array([0.7]),
        ma_coeffs=np.empty(0),
    )
    history = np.array([1.0, 2.0, 3.0])
    assert arima.forecast_one_step(model, history) == pytest.approx(0.5 + 0.7 * 3.0)


def test_rolling_forecast_deterministic():
    y = simulate_ar1(300, 0.6, seed=7)
    model = arima.fit(y[:290], ArimaOrder(1, 0, 1))
    a = arima.rolling_forecasts(model, y, 290)
    b = arima.rolling_forecasts(model, y, 290)
    assert len(a) == 10
    assert np.array_equal(a, b)


def test_differencing_round_trip_d2():
    # integrating a (0,2,0) forecast reproduces the level recursion exactly
    y = np.cumsum(np.cumsum(np.random.default_rng(3).normal(size=200)))
    model = arima.ArimaModel(
        ArimaOrder(0, 2, 0), intercept=0.0, ar_coeffs=np.empty(0),
        ma_coeffs=np.empty(0),
    )
    forecast = arima.forecast_one_step(model, y)
    assert forecast == pytest.approx(2 * y[-1] - y[-2])


def test_forecast_insufficient_history_errors():
    model = arima.ArimaModel(
        ArimaOrder(3, 1, 0), intercept=0.0, ar_coeffs=np.zeros(3),
        ma_coeffs=np.empty(0),
    )
    with pytest.raises(UsageError):
        arima.forecast_one_step(model, np.array([1.0, 2.0]))


# ---------------------------------------------------------------- serialization


def test_model_json_round_trip():
    y = simulate_ar1(400, 0.5, seed=9)
    model = arima.fit(y, ArimaOrder(1, 0, 1))
    restored = arima.ArimaModel.from_dict(model.to_dict())
    assert restored.order == model.order
    assert np.array_equal(restored.ar_coeffs, model.ar_coeffs)
    assert np.array_equal(restored.ma_coeffs, model.ma_coeffs)
    assert np.array_equal(restored.tail_values, model.tail_values)
    # forecasts from the restored model are identical
    assert arima.forecast_one_step(restored, y) == arima.forecast_one_step(model, y)
    # artifacts written before the residual fields were dropped still load
    legacy = dict(model.to_dict(), residual_variance=1.0, tail_residuals=[0.5])
    old = arima.ArimaModel.from_dict(legacy)
    assert np.array_equal(arima.rolling_forecasts(old, y, 380),
                          arima.rolling_forecasts(model, y, 380))
