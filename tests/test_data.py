import csv
import io
import re

import numpy as np
import pytest
from conftest import aligned_from_close

from sentigan import data as D
from sentigan.errors import DataError


def csv_stream(rows, header="date,open,high,low,close,adj_close,volume"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


VALID_ROWS = [
    "2024-01-03,10,12,9,11,11,1000",
    "2024-01-02,10,12,9,11,11,1000",
    "2024-01-04,11,13,10,12,12,900",
]


def make_aligned(n, sentiment=None, seed=0):
    """n days of a random walk around 100, dated from 2020-01-01."""
    close = 100.0 + np.cumsum(np.random.default_rng(seed).normal(0, 1, n))
    return aligned_from_close(close, symbol="TST", sentiment=sentiment)


def load_repaired(rows):
    dates, values, _ = D.load_ohlcv(csv_stream(rows))
    return D.repair_missing(dates, values)


# ---------------------------------------------------------------- load


def test_load_sorts_rows():
    dates, values, rows = D.load_ohlcv(csv_stream(VALID_ROWS))
    assert [d.isoformat() for d in dates] == ["2024-01-02", "2024-01-03", "2024-01-04"]
    assert values.shape == (3, 6)
    assert values[:, 0].tolist() == [10, 10, 11]
    assert rows == 3


def test_load_dedupes_keeping_first():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-02,99,100,98,99,99,5"]
    dates, values, count = D.load_ohlcv(csv_stream(rows))
    assert len(dates) == 1
    assert values[0, 0] == 10
    assert count == 2  # rows read, the duplicate included


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


def test_load_rejects_file_without_a_complete_price_row_naming_origin():
    rows = ["2024-01-02,,12,9,11,11,1000", "2024-01-03,10,12,9,11,,1000"]
    with pytest.raises(DataError, match="AAA.csv: no row has every price field"):
        D.load_ohlcv(csv_stream(rows), origin="AAA.csv")


def serialize_ohlcv(dates, values) -> str:
    """The OHLCV CSV text of dated rows, each value written exactly, NaN blank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(D.OHLCV_HEADER)
    for day, row in zip(dates, values.tolist()):
        writer.writerow([day.isoformat()] + ["" if np.isnan(v) else repr(v) for v in row])
    return buf.getvalue()


def test_ingestion_idempotence_round_trip():
    dates, values, _ = D.load_ohlcv(csv_stream(VALID_ROWS + ["2024-01-05,12,13,11,,12,"]))
    text = serialize_ohlcv(dates, values)
    dates2, values2, _ = D.load_ohlcv(io.StringIO(text))
    assert dates2 == dates
    assert values2.tobytes() == values.tobytes()
    assert serialize_ohlcv(dates2, values2) == text


# ---------------------------------------------------------------- repair


def test_repair_forward_fills_close():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-03,10,12,9,,11,1000"]
    dates, repaired, log = load_repaired(rows)
    assert repaired[1, D.CLOSE_COLUMN] == 11
    assert log == [{"date": "2024-01-03", "field": "close", "action": "forward_fill"}]


def test_repair_forward_fills_through_a_run_of_gaps():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-03,10,12,9,,11,",
            "2024-01-04,,12,9,,11,500", "2024-01-05,10,12,9,10.5,11,700"]
    _, repaired, log = load_repaired(rows)
    assert repaired[:, D.CLOSE_COLUMN].tolist() == [11, 11, 11, 10.5]
    assert repaired[:, 0].tolist() == [10, 10, 10, 10]
    assert repaired[:, 5].tolist() == [1000, 0, 500, 700]  # volume is never carried
    assert [(e["date"], e["field"]) for e in log] == [
        ("2024-01-03", "close"), ("2024-01-03", "volume"),
        ("2024-01-04", "open"), ("2024-01-04", "close")]


def test_repair_identity_when_complete():
    dates, values, _ = D.load_ohlcv(csv_stream(VALID_ROWS))
    repaired_dates, repaired, log = D.repair_missing(dates, values)
    assert repaired_dates == dates
    assert repaired.tobytes() == values.tobytes()
    assert log == []


def test_repair_drops_leading_missing_row():
    rows = ["2024-01-02,,12,9,11,11,", "2024-01-03,10,12,9,11,11,1000"]
    dates, repaired, log = load_repaired(rows)
    assert [d.isoformat() for d in dates] == ["2024-01-03"]
    assert repaired.shape == (1, 6)
    assert [e["action"] for e in log] == ["drop_leading_row", "zero_fill"]


def test_repair_missing_volume_zero_filled():
    rows = ["2024-01-02,10,12,9,11,11,1000", "2024-01-03,10,12,9,11,11,"]
    _, repaired, log = load_repaired(rows)
    assert repaired[1, 5] == 0.0
    assert log[0]["action"] == "zero_fill"


def test_repair_entirely_missing_column_errors():
    rows = ["2024-01-02,10,12,9,,11,1000", "2024-01-03,10,12,9,,11,1000"]
    with pytest.raises(DataError, match="AAA.csv: column close is entirely missing"):
        D.load_ohlcv(csv_stream(rows), origin="AAA.csv")


# ---------------------------------------------------------------- windows


def test_window_count():
    assert len(D.make_windows(make_aligned(25), 20)) == 5


def test_window_contents_and_overlap():
    aligned = make_aligned(12)
    windows = D.make_windows(aligned, 5)
    assert windows.histories.shape == (7, 5, 6)
    assert np.array_equal(windows.histories[0], aligned.features[0:5])
    assert np.array_equal(windows.targets[0], aligned.features[5])
    assert np.array_equal(windows.histories[1, :-1], windows.histories[0, 1:])
    assert np.array_equal(windows.targets[-1], aligned.features[-1])


def test_window_sentiment_is_last_history_day():
    aligned = make_aligned(8, sentiment=np.arange(8) / 10)
    windows = D.make_windows(aligned, 3)
    assert windows.sentiments[0] == pytest.approx(0.2)
    assert np.array_equal(windows.sentiments, aligned.sentiment[2:-1])


def test_window_too_short_errors():
    with pytest.raises(DataError) as e:
        D.make_windows(make_aligned(5), 10)
    assert "11" in str(e.value)


def test_window_targets_reconstruct_series():
    aligned = make_aligned(30)
    windows = D.make_windows(aligned, 7)
    assert np.array_equal(windows.targets, aligned.features[7:])


def test_windows_are_read_only_views_of_the_aligned_array():
    aligned = make_aligned(12, sentiment=np.full(12, 0.1))
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
    aligned = make_aligned(12)
    part = D.make_windows(aligned, 5)[rows]
    fresh = D.make_windows(aligned, 5)
    assert len(part) == len(fresh.targets[rows])
    assert np.array_equal(part.histories, fresh.histories[rows])
    assert np.array_equal(part.sentiments, fresh.sentiments[rows])
    assert np.array_equal(part.targets, fresh.targets[rows])


# ---------------------------------------------------------------- serialization


def test_aligned_save_load_round_trip(tmp_path):
    sentiment = np.zeros(15)
    sentiment[3] = 0.4
    aligned = make_aligned(15, sentiment=sentiment)
    path = tmp_path / "aligned.json"
    D.save_aligned(aligned, path)
    loaded = D.load_aligned(path)
    assert loaded.symbol == aligned.symbol
    assert loaded.dates == aligned.dates
    assert np.array_equal(loaded.features, aligned.features)
    assert np.array_equal(loaded.sentiment, aligned.sentiment)


@pytest.mark.parametrize("values", [[1.5, True], [[1.0, 2.0], [False, 3.0]], [2, True],
                                    ["1.5"]])
def test_finite_floats_refuses_anything_but_finite_numbers(values):
    # numpy reads a bool among numbers as 0 or 1; it must not pass as one
    with pytest.raises(DataError, match="sentiment must be finite numbers"):
        D.finite_floats(values, "sentiment")


def test_flat_floats_refuses_a_value_that_overflows_its_dtype():
    # 1e39 is finite as read and past float32's range; the cast warns
    # nothing (warnings are errors here), and the value is refused
    assert D.flat_floats([1.0, 1e39], "theta").dtype == np.float64
    with pytest.raises(DataError, match="theta must be finite in float32"):
        D.flat_floats([1.0, 1e39], "theta", np.float32)
    largest = float(np.finfo(np.float32).max)
    assert np.array_equal(D.flat_floats([-largest, 1e-50], "theta", np.float32),
                          np.array([-largest, 0.0], dtype=np.float32))


def test_aligned_dates_must_increase_strictly():
    aligned = make_aligned(5)
    for dates in ([*aligned.dates[:2], aligned.dates[3], aligned.dates[2], aligned.dates[4]],
                  [*aligned.dates[:4], aligned.dates[3]]):
        with pytest.raises(DataError, match="not strictly increasing"):
            D.AlignedDataset(aligned.symbol, dates, aligned.features, aligned.sentiment)


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
    with pytest.raises({"encode": UnicodeEncodeError, "replace": DataError}[failure]):
        D.write_atomic(path, text)
    assert path.read_text() == "old\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]


def test_save_aligned_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "aligned.json"
    D.save_aligned(make_aligned(15), path)
    before = path.read_bytes()
    monkeypatch.setattr(D.os, "replace", refuse_replace)
    with pytest.raises(DataError, match=re.escape(f"{path}: cannot write")):
        D.save_aligned(make_aligned(10), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["aligned.json"]


def test_readers_skip_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xef\xbb\xbfdate,open\r\n\xef\xbb\xbf1\n")
    assert D.read_utf8(path) == "date,open\r\n\ufeff1\n"
    assert list(D.utf8_lines(path)) == ["date,open\r\n", "\ufeff1\n"]


def test_a_bad_byte_after_a_byte_order_mark_counts_from_the_first_byte(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xef\xbb\xbfab\xffc\n")
    message = re.escape(f"{path}: not UTF-8 text (invalid byte at offset 5)")
    for read in (D.read_utf8, lambda p: list(D.utf8_lines(p))):
        with pytest.raises(DataError, match=message):
            read(path)


def test_blank_rows_are_skipped_and_keep_their_line_numbers():
    source = ["date,open\n", "\n", " , \t\n", "2024-01-02,10\n", ",\n", "x,\n"]
    assert list(D.csv_rows(source, "f", ["date", "open"])) == [
        (4, ["2024-01-02", "10"]), (6, ["x", ""])]
