"""Market data ingestion, repair, windowing and splits.

All partitioning is chronological; nothing here ever shuffles. Windows are
read-only views of the aligned arrays, never copies. Scaling is
deliberately not done in this module so that scaler parameters can only be
fitted on an explicit train partition by the model code.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

OHLCV_HEADER = ["date", "open", "high", "low", "close", "adj_close", "volume"]
FEATURE_COLUMNS = ["open", "high", "low", "close", "adj_close", "volume"]
CLOSE_COLUMN = 3


@dataclass
class AlignedDataset:
    symbol: str
    dates: list[Date]
    features: np.ndarray  # (T, 6), column order = FEATURE_COLUMNS
    sentiment: np.ndarray  # (T,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.sentiment = np.asarray(self.sentiment, dtype=float)
        t = len(self.dates)
        if self.features.shape != (t, 6) or self.sentiment.shape != (t,):
            raise DataError(
                f"aligned dataset shape mismatch: {t} dates, "
                f"features {self.features.shape}, sentiment {self.sentiment.shape}"
            )
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError(f"{self.symbol}: dates are not strictly increasing")

    def to_dict(self):
        return {
            "symbol": self.symbol,
            "dates": [d.isoformat() for d in self.dates],
            "features": self.features.tolist(),
            "sentiment": self.sentiment.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        aligned = cls(
            symbol=d["symbol"],
            dates=[Date.fromisoformat(s) for s in d["dates"]],
            features=finite_floats(d["features"], "features"),
            sentiment=finite_floats(d["sentiment"], "sentiment"),
        )
        # the signs ingest enforces (prices, then volume); forward-fill can break high/low order
        if (aligned.features[:, :-1] <= 0).any() or (aligned.features[:, -1] < 0).any():
            raise DataError("features must hold prices > 0 and volumes >= 0")
        return aligned


@dataclass(frozen=True)
class Windows:
    """Stride-1 sliding windows of an aligned dataset, one row per window:
    window i is history rows [i, i+L), the sentiment of its last day and
    target row i+L. It slices (`w[i:j]`) and measures (`len(w)`) like a
    sequence of windows."""

    histories: np.ndarray  # (N, L, 6)
    sentiments: np.ndarray  # (N,) compound at each window's last history day
    targets: np.ndarray  # (N, 6) next-day observations

    def __len__(self):
        return len(self.targets)

    def __getitem__(self, rows: slice) -> Windows:
        return Windows(self.histories[rows], self.sentiments[rows], self.targets[rows])


def _parse_field(value, name, at):
    value = value.strip()
    if value == "" or value.lower() in ("nan", "null", "na"):
        return None
    try:
        parsed = float(value)
    except ValueError:
        raise DataError(f"{at}: cannot parse {name}={value!r}") from None
    if not math.isfinite(parsed):
        raise DataError(f"{at}: {name}={value!r} is not finite")
    return parsed


def _validate_row(day, fields, at):
    """Refuse a row whose present fields (None is missing) are not a valid bar."""
    v = {name: val for name, val in zip(FEATURE_COLUMNS, fields) if val is not None}
    for name in ("open", "high", "low", "close", "adj_close"):
        if name in v and v[name] <= 0:
            raise DataError(f"{at} ({day}): {name} must be > 0, got {v[name]}")
    if "volume" in v and v["volume"] < 0:
        raise DataError(f"{at} ({day}): volume must be >= 0")
    if "high" in v and "low" in v and v["low"] > v["high"]:
        raise DataError(f"{at} ({day}): high < low")
    for name in ("open", "close"):
        if name in v:
            if "low" in v and v[name] < v["low"]:
                raise DataError(f"{at} ({day}): {name} below low")
            if "high" in v and v[name] > v["high"]:
                raise DataError(f"{at} ({day}): {name} above high")


def csv_rows(source, origin, header: list[str]):
    """(line number, row) for each non-blank row of CSV lines that start with
    `header`; a wrong header, or a row the csv module rejects (such as a
    field over its size limit), is a DataError naming `origin` and the line."""
    reader = csv.reader(source)
    try:
        got = next(reader, None)
        if got is None or [h.strip().lower() for h in got] != header:
            raise DataError(f"{origin}: expected header {','.join(header)!r}, got {got}")
        for line_no, row in enumerate(reader, start=2):
            if "".join(row).strip():
                yield line_no, row
    except csv.Error as e:
        raise DataError(f"{origin} line {reader.line_num}: {e}") from None


def csv_text(header: str, rows) -> str:
    """The header line, then a line per row: a str field as is, a number as
    its repr. Numbers come through .tolist(): a Python float's repr is its
    shortest exact decimal, a numpy scalar's is np.float64(...)."""
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows)


def load_ohlcv(source, origin="OHLCV") -> tuple[list[Date], np.ndarray, int]:
    """Parse and validate OHLCV CSV lines. Returns the sorted unique dates (a
    repeated date keeps its first row), their (T, 6) values in FEATURE_COLUMNS
    order with NaN for a missing field, and the count of data rows read.

    Errors name `origin` (the file) and, for a bad row, the line. A column
    without a value in any row, and a file without a row that has every
    price field, are refused too: repair_missing has nothing to start from."""
    days, rows = [], []
    for line_no, row in csv_rows(source, origin, OHLCV_HEADER):
        at = f"{origin} line {line_no}"
        if len(row) != 7:
            raise DataError(f"{at}: expected 7 columns, got {len(row)}")
        try:
            day = Date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{at}: bad date {row[0]!r}") from None
        fields = [_parse_field(row[i + 1], FEATURE_COLUMNS[i], at) for i in range(6)]
        _validate_row(day, fields, at)
        days.append(day)
        rows.append([math.nan if v is None else v for v in fields])
    if not rows:
        raise DataError(f"{origin}: no data rows after the header")
    # np.unique's indices are each date's first occurrence, in date order
    keep = np.unique([d.toordinal() for d in days], return_index=True)[1]
    values = np.array(rows)[keep]
    for name, empty in zip(FEATURE_COLUMNS, np.isnan(values).all(axis=0)):
        if empty:
            raise DataError(f"{origin}: column {name} is entirely missing")
    if np.isnan(values[:, :5]).any(axis=1).all():
        raise DataError(f"{origin}: no row has every price field")
    return [days[i] for i in keep], values, len(rows)


def repair_missing(dates, values) -> tuple[list[Date], np.ndarray, list[dict]]:
    """Forward-fill missing (NaN) price fields from the prior trading day;
    missing volume becomes 0; leading rows up to the first one with every
    price field are dropped.

    Returns the kept dates, their repaired values and a log of {date, field,
    action} entries in row, then column order."""
    gaps = np.isnan(values)
    first = int(np.argmax(~gaps[:, :5].any(axis=1)))
    log = [{"date": dates[r].isoformat(), "field": FEATURE_COLUMNS[c],
            "action": "zero_fill" if c == 5 else
                      "drop_leading_row" if r < first else "forward_fill"}
           for r, c in np.argwhere(gaps).tolist()]
    values, gaps = values[first:], gaps[first:]
    # the row each price is taken from: its own, or the last one that had it
    source = np.maximum.accumulate(np.where(gaps, 0, np.arange(len(values))[:, None]), axis=0)
    repaired = np.take_along_axis(values, source, axis=0)
    repaired[:, 5] = np.where(gaps[:, 5], 0.0, values[:, 5])
    return dates[first:], repaired, log


def make_windows(aligned: AlignedDataset, window_length: int) -> Windows:
    """The stride-1 windows of `aligned`, T - L of them for T rows.

    Histories, sentiments and targets are read-only views of the aligned
    arrays, so the windows share their memory and a write to one raises."""
    rows = len(aligned.dates)
    if rows < window_length + 1:
        raise DataError(
            f"need at least {window_length + 1} rows for window length "
            f"{window_length}, got {rows}"
        )
    features = aligned.features.view()
    sentiment = aligned.sentiment.view()
    features.flags.writeable = sentiment.flags.writeable = False
    histories = sliding_window_view(features[:-1], window_length, axis=0)
    return Windows(histories=histories.transpose(0, 2, 1),
                   sentiments=sentiment[window_length - 1 : -1],
                   targets=features[window_length:])


def read_utf8(path) -> str:
    """A file's UTF-8 text without a leading byte-order mark; other bytes, or
    a path that cannot be read (a directory, say), are a DataError naming the
    path and, for a bad byte, its offset from the file's first byte."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (invalid byte at offset {e.start})") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read ({e.strerror or e})") from None


def utf8_lines(path):
    """The lines of a UTF-8 file without a leading byte-order mark, read as
    open(path, newline="") reads them, without holding the whole file; errors
    raise as in read_utf8."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except (UnicodeDecodeError, OSError):
        read_utf8(path)  # raises the DataError that names the path
        raise


def write_atomic(path, text: str):
    """Write text to a temporary file next to `path` (creating its directory),
    then rename it over `path`: readers see the old or the new content, never
    a part of it. A path that cannot be written is a DataError naming it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as e:
        raise DataError(f"{path}: cannot write ({e.strerror or e})") from None
    finally:
        if tmp.exists():  # unlink(missing_ok=True) raises if a file stands in for a directory
            tmp.unlink()


def finite_floats(values, what) -> np.ndarray:
    """`values` read back from JSON, as a float array. Anything but numbers
    (a string, null or a bool) or a non-finite number (NaN, Infinity, or a
    literal such as 1e400 that overflows) is a DataError naming `what`. A
    bool among numbers, which numpy reads as 0 or 1, is found by its type."""
    arr = np.asarray(values)
    if (arr.dtype.kind not in "iuf" or not np.isfinite(arr).all()
            or bool in set(map(type, np.asarray(values, dtype=object).flat))):
        raise DataError(f"{what} must be finite numbers")
    return arr.astype(float, copy=False)


def flat_floats(values, what, dtype=np.float64) -> np.ndarray:
    """A stored flat parameter vector: finite_floats on one axis, so that a
    (K, P) list cannot load as K stacked networks, cast to `dtype`. A value
    that the cast overflows (1e39 in float32) is a DataError too."""
    arr = finite_floats(values, what)
    if arr.ndim != 1:
        raise DataError(f"{what} must be a flat list of numbers")
    with np.errstate(over="ignore"):
        arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise DataError(f"{what} must be finite in {arr.dtype}")
    return arr


def positive_ints(values, what) -> list[int]:
    """The integer sizes a stored network is built from, each >= 1."""
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values):
        raise DataError(f"{what} must be integers >= 1, got {values!r}")
    return values


def save_aligned(aligned: AlignedDataset, path):
    write_atomic(path, json.dumps(aligned.to_dict(), sort_keys=True))


def load_aligned(path) -> AlignedDataset:
    return AlignedDataset.from_dict(json.loads(read_utf8(path)))
