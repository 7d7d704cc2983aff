import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sentigan import gan
from sentigan.errors import DataError, DimensionError
from sentigan.data import CLOSE_COLUMN, Windows
from sentigan.scaling import (
    ScalerParams,
    close_inverse,
    scaler_fit,
    scaler_fit_windows,
    scaler_transform,
)


def column(*values):
    """One feature: a (n, 1) array."""
    return np.array(values)[:, None]


def test_fit_records_min_max():
    params = scaler_fit(column(2.0, 4.0, 6.0))
    assert params.per_feature_min[0] == 2.0
    assert params.per_feature_max[0] == 6.0


def test_unit_maps_extremes():
    params = scaler_fit(column(2.0, 4.0, 6.0))
    out = scaler_transform(params, column(2.0, 6.0))
    assert np.allclose(out, column(0.0, 1.0))


def test_constant_column_maps_to_midpoint():
    params = scaler_fit(np.full((3, 6), 5.0))
    assert np.all(scaler_transform(params, np.full((1, 6), 5.0)) == 0.5)
    # inverse restores the constant
    assert close_inverse(params, 0.5) == 5.0


def test_out_of_range_value_extrapolates_not_clips():
    params = scaler_fit(column(2.0, 6.0))
    assert scaler_transform(params, column(8.0))[0, 0] > 1.0


def test_empty_data_errors():
    with pytest.raises(DataError):
        scaler_fit(np.empty((0, 3)))


def test_column_mismatch_errors():
    params = scaler_fit(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        scaler_transform(params, np.ones((2, 2)))


def test_round_trip_random_matrix():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(50, 6)) * 100
    params = scaler_fit(data)
    back = close_inverse(params, scaler_transform(params, data)[:, CLOSE_COLUMN])
    close = data[:, CLOSE_COLUMN]
    assert np.max(np.abs(back - close)) < 1e-12 * max(1.0, np.max(np.abs(close)))


@settings(max_examples=50)
@given(
    vals=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
    ),
)
def test_round_trip_property(vals):
    # the values are the close column of a 6-feature matrix
    data = np.zeros((len(vals), 6))
    data[:, CLOSE_COLUMN] = vals
    params = scaler_fit(data)
    back = close_inverse(params, scaler_transform(params, data)[:, CLOSE_COLUMN])
    close = data[:, CLOSE_COLUMN]
    scale = max(1.0, float(np.max(np.abs(close))))
    assert np.max(np.abs(back - close)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), length=st.integers(1, 5), data=st.data())
def test_fitted_windows_scale_into_the_unit_range_exactly(n, length, data):
    # rounding is monotone, so the rows a scaler was fitted on map into
    # [0, 1] with no value past either end, and the GAN's clip of its
    # training rows is the identity
    values = data.draw(arrays(float, (n, length + 1, 6), elements=st.floats(-1e12, 1e12)))
    constant = data.draw(arrays(bool, 6))
    values[..., constant] = values[0, 0, constant]
    histories, targets = values[:, :-1], values[:, -1]
    sentiments = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    scaler = scaler_fit_windows(histories, targets)
    for rows in (histories, targets):
        unit = scaler_transform(scaler, rows)
        assert np.all((unit >= 0.0) & (unit <= 1.0))
    windows = Windows(histories, sentiments, targets)
    unclipped = np.concatenate(
        [gan._to_tanh_range(scaler_transform(scaler, histories)).reshape(n, -1),
         sentiments[:, None]], axis=1)
    assert gan._conditioning(scaler, windows).tobytes() == unclipped.tobytes()


def test_leakage_freedom_params_ignore_test_rows():
    rng = np.random.default_rng(5)
    full = rng.normal(size=(100, 6))
    train = full[:90]
    params_a = scaler_fit(train)
    # mutate "test" rows arbitrarily; fit again on the same train slice
    full[90:] += 1e9
    params_b = scaler_fit(full[:90])
    assert np.array_equal(params_a.per_feature_min, params_b.per_feature_min)
    assert np.array_equal(params_a.per_feature_max, params_b.per_feature_max)


def test_serialization_round_trip():
    params = scaler_fit(np.arange(12.0).reshape(2, 6))
    restored = ScalerParams.from_dict(params.to_dict())
    assert np.array_equal(restored.per_feature_min, params.per_feature_min)
    assert np.array_equal(restored.per_feature_max, params.per_feature_max)


def ranges(width=6):
    return {"per_feature_min": [0.0] * width, "per_feature_max": [1.0] * width}


@pytest.mark.parametrize("stored, why", [
    (None, "no fitted scaler"),
    (ranges(width=5), "scaler spans 5 features, not 6"),
], ids=["null", "five_features"])
def test_from_dict_refuses_a_scaler_the_model_cannot_use(stored, why):
    with pytest.raises(DataError, match=why):
        ScalerParams.from_dict(stored)


@pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [2.0]), ([[0.0]], [[1.0]]), (0.0, 1.0)])
def test_from_dict_rejects_ragged_or_non_list_ranges(lo, hi):
    with pytest.raises(DimensionError):
        ScalerParams.from_dict({"per_feature_min": lo, "per_feature_max": hi})
