import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigan.errors import DataError, DimensionError
from sentigan.scaling import ScalerParams, scaler_fit, scaler_inverse, scaler_transform


def test_fit_records_min_max():
    params = scaler_fit(np.array([2.0, 4.0, 6.0]), "unit")
    assert params.per_feature_min[0] == 2.0
    assert params.per_feature_max[0] == 6.0


def test_unit_maps_extremes():
    params = scaler_fit(np.array([2.0, 4.0, 6.0]), "unit")
    out = scaler_transform(params, np.array([2.0, 6.0]))
    assert np.allclose(out, [0.0, 1.0])


def test_signed_midpoint_is_zero():
    params = scaler_fit(np.array([2.0, 6.0]), "signed")
    assert scaler_transform(params, np.array([4.0]))[0] == pytest.approx(0.0)


def test_constant_column_maps_to_midpoint():
    params_u = scaler_fit(np.array([5.0, 5.0, 5.0]), "unit")
    params_s = scaler_fit(np.array([5.0, 5.0, 5.0]), "signed")
    assert scaler_transform(params_u, np.array([5.0]))[0] == 0.5
    assert scaler_transform(params_s, np.array([5.0]))[0] == 0.0
    # inverse restores the constant
    assert scaler_inverse(params_u, np.array([0.5]))[0] == 5.0


def test_out_of_range_value_extrapolates_not_clips():
    params = scaler_fit(np.array([2.0, 6.0]), "unit")
    assert scaler_transform(params, np.array([8.0]))[0] > 1.0


def test_empty_data_errors():
    with pytest.raises(DataError):
        scaler_fit(np.empty((0, 3)))


def test_column_mismatch_errors():
    params = scaler_fit(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        scaler_transform(params, np.ones((2, 2)))


@pytest.mark.parametrize("mode", ["unit", "signed"])
def test_round_trip_random_matrix(mode):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(50, 6)) * 100
    params = scaler_fit(data, mode)
    back = scaler_inverse(params, scaler_transform(params, data))
    assert np.max(np.abs(back - data)) < 1e-12 * max(1.0, np.max(np.abs(data)))


@settings(max_examples=50)
@given(
    vals=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
    ),
    mode=st.sampled_from(["unit", "signed"]),
)
def test_round_trip_property(vals, mode):
    data = np.asarray(vals)
    params = scaler_fit(data, mode)
    back = scaler_inverse(params, scaler_transform(params, data))
    scale = max(1.0, float(np.max(np.abs(data))))
    assert np.max(np.abs(back - data)) <= 1e-9 * scale


def test_leakage_freedom_params_ignore_test_rows():
    rng = np.random.default_rng(5)
    full = rng.normal(size=(100, 6))
    train = full[:90]
    params_a = scaler_fit(train, "unit")
    # mutate "test" rows arbitrarily; fit again on the same train slice
    full[90:] += 1e9
    params_b = scaler_fit(full[:90], "unit")
    assert np.array_equal(params_a.per_feature_min, params_b.per_feature_min)
    assert np.array_equal(params_a.per_feature_max, params_b.per_feature_max)


def test_serialization_round_trip():
    params = scaler_fit(np.arange(12.0).reshape(4, 3), "signed", fitted_on="train")
    restored = ScalerParams.from_dict(params.to_dict())
    assert restored.mode == "signed"
    assert np.array_equal(restored.per_feature_min, params.per_feature_min)


@pytest.mark.parametrize("lo, hi", [([0.0, 1.0], [2.0]), ([[0.0]], [[1.0]]), (0.0, 1.0)])
def test_from_dict_rejects_ragged_or_non_list_ranges(lo, hi):
    with pytest.raises(DimensionError):
        ScalerParams.from_dict({"mode": "unit", "per_feature_min": lo, "per_feature_max": hi})
