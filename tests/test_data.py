import csv
import io
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigan import data as D
from sentigan.errors import DataError
from sentigan.sentiment import DailySentiment


def csv_stream(rows, header="date,open,high,low,close,adj_close,volume"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


VALID_ROWS = [
    "2024-01-03,10,12,9,11,11,1000",
    "2024-01-02,10,12,9,11,11,1000",
    "2024-01-04,11,13,10,12,12,900",
]


def make_series(n, start_price=100.0, symbol="TST", seed=0):
    rng = np.random.default_rng(seed)
    bars = []
    price = start_price
    for i in range(n):
        price = max(1.0, price + rng.normal(0, 1))
        day = date.fromordinal(date(2020, 1, 1).toordinal() + i)
        bars.append(D.Bar(day, price, price * 1.01, price * 0.99, price, price, 1000.0))
    return D.Series(symbol, bars)


# ---------------------------------------------------------------- load


def test_load_sorts_rows():
    series, report = D.load_ohlcv(csv_stream(VALID_ROWS), "TST")
    assert [b.date.isoformat() for b in series.bars] == [
        "2024-01-02",
        "2024-01-03",
        "2024-01-04",
    ]
    assert report.rows == 3


def test_load_dedupes_keeping_first():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-02,99,100,98,99,99,5"]
    series, report = D.load_ohlcv(csv_stream(rows))
    assert len(series.bars) == 1
    assert series.bars[0].open == 10
    assert report.duplicates_removed == 1


def test_load_rejects_high_below_low():
    with pytest.raises(DataError) as e:
        D.load_ohlcv(csv_stream(["2024-01-02,10,9,12,11,11,1000"]))
    assert "2024-01-02" in str(e.value)


def test_load_reports_line_number_on_malformed_row():
    with pytest.raises(DataError) as e:
        D.load_ohlcv(csv_stream(["2024-01-02,10,12,9,11,11,1000", "garbage,x,y,z,a,b,c"]))
    assert "line 3" in str(e.value)


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "1e999"])
def test_load_rejects_non_finite_value_with_line_number(value):
    rows = ["2024-01-02,10,12,9,11,11,1000", f"2024-01-03,10,{value},9,11,11,1000"]
    with pytest.raises(DataError) as e:
        D.load_ohlcv(csv_stream(rows))
    assert "line 3" in str(e.value) and "high" in str(e.value)


def test_load_rejects_bad_header():
    with pytest.raises(DataError):
        D.load_ohlcv(csv_stream(VALID_ROWS, header="a,b,c"))


def test_load_rejects_header_without_rows_naming_origin():
    with pytest.raises(DataError, match="AAA.csv: no data rows"):
        D.load_ohlcv(io.StringIO(",".join(D.OHLCV_HEADER)), origin="AAA.csv")


def serialize_ohlcv(series: D.Series) -> str:
    """The OHLCV CSV text of a series, each value written exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(D.OHLCV_HEADER)
    for bar in series.bars:
        writer.writerow([bar.date.isoformat()]
                        + ["" if v is None else repr(float(v)) for v in bar.values()])
    return buf.getvalue()


def test_ingestion_idempotence_round_trip():
    series, _ = D.load_ohlcv(csv_stream(VALID_ROWS), "TST")
    text = serialize_ohlcv(series)
    series2, _ = D.load_ohlcv(io.StringIO(text), "TST")
    assert series2 == series
    assert serialize_ohlcv(series2) == text


# ---------------------------------------------------------------- repair


def test_repair_forward_fills_close():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-03,10,12,9,,11,1000"]
    series, _ = D.load_ohlcv(csv_stream(rows))
    repaired, log = D.repair_missing(series)
    assert repaired.bars[1].close == 11
    assert log == [{"date": "2024-01-03", "field": "close", "action": "forward_fill"}]


def test_repair_identity_when_complete():
    series, _ = D.load_ohlcv(csv_stream(VALID_ROWS))
    repaired, log = D.repair_missing(series)
    assert repaired == series
    assert log == []


def test_repair_drops_leading_missing_row():
    rows = ["2024-01-02,,12,9,11,11,1000", "2024-01-03,10,12,9,11,11,1000"]
    series, _ = D.load_ohlcv(csv_stream(rows))
    repaired, log = D.repair_missing(series)
    assert len(repaired.bars) == 1
    assert repaired.bars[0].date.isoformat() == "2024-01-03"
    assert log[0]["action"] == "drop_leading_row"


def test_repair_missing_volume_zero_filled():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-03,10,12,9,11,11,"]
    series, _ = D.load_ohlcv(csv_stream(rows))
    repaired, log = D.repair_missing(series)
    assert repaired.bars[1].volume == 0.0
    assert log[0]["action"] == "zero_fill"


def test_repair_entirely_missing_column_errors():
    rows = ["2024-01-02,10,12,9,,11,1000", "2024-01-03,10,12,9,,11,1000"]
    series, _ = D.load_ohlcv(csv_stream(rows))
    with pytest.raises(DataError):
        D.repair_missing(series)


# ---------------------------------------------------------------- align


def test_align_fills_missing_days_with_zero():
    series = make_series(5)
    daily = [
        DailySentiment(series.bars[0].date, 0.5, 1),
        DailySentiment(series.bars[2].date, -0.3, 2),
        DailySentiment(series.bars[4].date, 0.1, 1),
    ]
    aligned, ignored = D.align(series, daily)
    assert np.allclose(aligned.sentiment, [0.5, 0.0, -0.3, 0.0, 0.1])
    assert ignored == 0


def test_align_ignores_out_of_range_sentiment():
    series = make_series(3)
    daily = [DailySentiment(date(1999, 1, 1), 0.9, 1)]
    aligned, ignored = D.align(series, daily)
    assert ignored == 1
    assert np.allclose(aligned.sentiment, 0.0)


def test_align_row_dates_match():
    series = make_series(10)
    aligned, _ = D.align(series, [])
    assert aligned.dates == series.dates
    assert aligned.features.shape == (10, 6)


# ---------------------------------------------------------------- windows


def test_window_count():
    aligned, _ = D.align(make_series(25), [])
    assert len(D.make_windows(aligned, 20)) == 5


def test_window_contents_and_overlap():
    aligned, _ = D.align(make_series(12), [])
    windows = D.make_windows(aligned, 5)
    assert windows.histories.shape == (7, 5, 6)
    assert np.array_equal(windows.histories[0], aligned.features[0:5])
    assert np.array_equal(windows.targets[0], aligned.features[5])
    assert np.array_equal(windows.histories[1, :-1], windows.histories[0, 1:])
    assert windows.dates[-1] == aligned.dates[-1]


def test_window_sentiment_is_last_history_day():
    series = make_series(8)
    daily = [DailySentiment(b.date, i / 10, 1) for i, b in enumerate(series.bars)]
    aligned, _ = D.align(series, daily)
    windows = D.make_windows(aligned, 3)
    assert windows.sentiments[0] == pytest.approx(0.2)
    assert np.array_equal(windows.sentiments, aligned.sentiment[2:-1])


def test_window_too_short_errors():
    aligned, _ = D.align(make_series(5), [])
    with pytest.raises(DataError) as e:
        D.make_windows(aligned, 10)
    assert "11" in str(e.value)


def test_window_targets_reconstruct_series():
    aligned, _ = D.align(make_series(30), [])
    windows = D.make_windows(aligned, 7)
    assert np.array_equal(windows.targets, aligned.features[7:])
    assert windows.dates == aligned.dates[7:]


def test_windows_are_read_only_views_of_the_aligned_array():
    series = make_series(12)
    aligned, _ = D.align(series, [DailySentiment(b.date, 0.1, 1) for b in series.bars])
    windows = D.make_windows(aligned, 5)
    for arr, source in ((windows.histories, aligned.features),
                        (windows.targets, aligned.features),
                        (windows.sentiments, aligned.sentiment)):
        assert np.shares_memory(arr, source)
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert aligned.features.flags.writeable and aligned.sentiment.flags.writeable


@pytest.mark.parametrize("rows", [slice(0, 3), slice(2, 5), slice(4, None), slice(-2, None)])
def test_sliced_windows_equal_the_rows_of_a_fresh_call(rows):
    aligned, _ = D.align(make_series(12), [])
    part = D.make_windows(aligned, 5)[rows]
    fresh = D.make_windows(aligned, 5)
    assert len(part) == len(fresh.dates[rows])
    assert np.array_equal(part.histories, fresh.histories[rows])
    assert np.array_equal(part.sentiments, fresh.sentiments[rows])
    assert np.array_equal(part.targets, fresh.targets[rows])
    assert part.dates == fresh.dates[rows]


# ---------------------------------------------------------------- split


@pytest.mark.parametrize(
    "total,policy,train_size",
    [(100, "fraction_90_10", 90), (100, "fraction_70_30", 70), (120, "holdout_last_20", 100)],
)
def test_split_sizes(total, policy, train_size):
    assert D.split_boundary(total, policy) == train_size


@settings(max_examples=60)
@given(
    total=st.integers(min_value=2, max_value=500),
    policy=st.sampled_from(D.SPLIT_POLICIES),
)
def test_split_partitions_disjoint_exhaustive_causal(total, policy):
    items = list(range(total))
    try:
        boundary = D.split_boundary(total, policy)
    except DataError:
        if policy == "holdout_last_20":
            assert total <= 20
        return
    train, test = items[:boundary], items[boundary:]
    assert train and test
    assert train + test == items  # order preserved, exhaustive
    assert max(train) < min(test)  # causality
    if policy == "fraction_90_10":
        assert len(train) == int(np.floor(0.9 * total))
    elif policy == "fraction_70_30":
        assert len(train) == int(np.floor(0.7 * total))
    else:
        assert len(test) == 20


def test_split_empty_partition_errors():
    with pytest.raises(DataError):
        D.split_boundary(1, "fraction_90_10")
    with pytest.raises(DataError):
        D.split_boundary(10, "holdout_last_20")


# ---------------------------------------------------------------- serialization


def test_aligned_save_load_round_trip(tmp_path):
    series = make_series(15)
    daily = [DailySentiment(series.bars[3].date, 0.4, 2)]
    aligned, _ = D.align(series, daily)
    path = tmp_path / "aligned.json"
    D.save_aligned(aligned, path)
    loaded = D.load_aligned(path)
    assert loaded.symbol == aligned.symbol
    assert loaded.dates == aligned.dates
    assert np.array_equal(loaded.features, aligned.features)
    assert np.array_equal(loaded.sentiment, aligned.sentiment)


def refuse_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["encode", "replace"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "out" / "report.json"
    D.write_atomic(path, "old\n")
    text = "new\n" * 1000
    if failure == "encode":
        text += "\udc80"  # a lone surrogate cannot be encoded: fails partway through
    else:
        monkeypatch.setattr(D.os, "replace", refuse_replace)
    with pytest.raises((UnicodeEncodeError, OSError)):
        D.write_atomic(path, text)
    assert path.read_text() == "old\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]


def test_save_aligned_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "aligned.json"
    D.save_aligned(D.align(make_series(15), [])[0], path)
    before = path.read_bytes()
    monkeypatch.setattr(D.os, "replace", refuse_replace)
    with pytest.raises(OSError):
        D.save_aligned(D.align(make_series(10), [])[0], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["aligned.json"]
