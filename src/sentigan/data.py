"""Market data ingestion, repair, sentiment alignment, windowing and splits.

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
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

OHLCV_HEADER = ["date", "open", "high", "low", "close", "adj_close", "volume"]
FEATURE_COLUMNS = ["open", "high", "low", "close", "adj_close", "volume"]
CLOSE_COLUMN = 3

SPLIT_POLICIES = ("fraction_90_10", "fraction_70_30", "holdout_last_20")
HOLDOUT_SIZE = 20


@dataclass
class Bar:
    date: Date
    open: float | None
    high: float | None
    low: float | None
    close: float | None
    adj_close: float | None
    volume: float | None

    def values(self):
        return [self.open, self.high, self.low, self.close, self.adj_close, self.volume]


@dataclass
class Series:
    symbol: str
    bars: list[Bar] = field(default_factory=list)

    @property
    def dates(self):
        return [b.date for b in self.bars]


@dataclass
class LoadReport:
    rows: int = 0
    duplicates_removed: int = 0


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

    def to_dict(self):
        return {
            "symbol": self.symbol,
            "dates": [d.isoformat() for d in self.dates],
            "features": self.features.tolist(),
            "sentiment": self.sentiment.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            symbol=d["symbol"],
            dates=[Date.fromisoformat(s) for s in d["dates"]],
            features=finite_floats(d["features"], "features"),
            sentiment=finite_floats(d["sentiment"], "sentiment"),
        )


@dataclass(frozen=True)
class Windows:
    """Stride-1 sliding windows of an aligned dataset, one row per window:
    window i is history rows [i, i+L), the sentiment of its last day and
    target row i+L. It slices (`w[i:j]`) and measures (`len(w)`) like a
    sequence of windows."""

    histories: np.ndarray  # (N, L, 6)
    sentiments: np.ndarray  # (N,) compound at each window's last history day
    targets: np.ndarray  # (N, 6) next-day observations
    dates: list[Date]  # (N,) target dates

    def __len__(self):
        return len(self.dates)

    def __getitem__(self, rows: slice) -> Windows:
        return Windows(self.histories[rows], self.sentiments[rows], self.targets[rows],
                       self.dates[rows])


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


def _validate_bar(bar: Bar, at):
    v = {name: val for name, val in zip(FEATURE_COLUMNS, bar.values()) if val is not None}
    for name in ("open", "high", "low", "close", "adj_close"):
        if name in v and v[name] <= 0:
            raise DataError(f"{at} ({bar.date}): {name} must be > 0, got {v[name]}")
    if "volume" in v and v["volume"] < 0:
        raise DataError(f"{at} ({bar.date}): volume must be >= 0")
    if "high" in v and "low" in v and v["low"] > v["high"]:
        raise DataError(f"{at} ({bar.date}): high < low")
    for name in ("open", "close"):
        if name in v:
            if "low" in v and v[name] < v["low"]:
                raise DataError(f"{at} ({bar.date}): {name} below low")
            if "high" in v and v[name] > v["high"]:
                raise DataError(f"{at} ({bar.date}): {name} above high")


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
            if any(c.strip() for c in row):
                yield line_no, row
    except csv.Error as e:
        raise DataError(f"{origin} line {reader.line_num}: {e}") from None


def load_ohlcv(source, symbol: str = "", origin="OHLCV") -> tuple[Series, LoadReport]:
    """Parse and validate OHLCV CSV lines; rows are sorted by date and
    duplicate dates deduplicated keeping the first occurrence. Errors name
    `origin` (the file) and the line."""
    bars = []
    report = LoadReport()
    for line_no, row in csv_rows(source, origin, OHLCV_HEADER):
        at = f"{origin} line {line_no}"
        if len(row) != 7:
            raise DataError(f"{at}: expected 7 columns, got {len(row)}")
        try:
            day = Date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{at}: bad date {row[0]!r}") from None
        vals = [_parse_field(row[i + 1], FEATURE_COLUMNS[i], at) for i in range(6)]
        bar = Bar(day, *vals)
        _validate_bar(bar, at)
        bars.append(bar)
        report.rows += 1
    bars.sort(key=lambda b: b.date)
    deduped = []
    seen = set()
    for bar in bars:
        if bar.date in seen:
            report.duplicates_removed += 1
            continue
        seen.add(bar.date)
        deduped.append(bar)
    return Series(symbol=symbol, bars=deduped), report


def repair_missing(series: Series) -> tuple[Series, list[dict]]:
    """Forward-fill missing price fields from the prior trading day; missing
    volume becomes 0; leading rows with unfillable fields are dropped.

    Returns the repaired series and a log of {date, field, action} entries."""
    for col, name in enumerate(FEATURE_COLUMNS):
        if series.bars and all(b.values()[col] is None for b in series.bars):
            raise DataError(f"column {name} is entirely missing")
    log = []
    repaired = []
    prev: Bar | None = None
    for bar in series.bars:
        vals = bar.values()
        new_vals = list(vals)
        drop = False
        for col, name in enumerate(FEATURE_COLUMNS):
            if new_vals[col] is not None:
                continue
            if name == "volume":
                new_vals[col] = 0.0
                log.append({"date": bar.date.isoformat(), "field": name, "action": "zero_fill"})
            elif prev is not None:
                new_vals[col] = prev.values()[col]
                log.append(
                    {"date": bar.date.isoformat(), "field": name, "action": "forward_fill"}
                )
            else:
                log.append(
                    {"date": bar.date.isoformat(), "field": name, "action": "drop_leading_row"}
                )
                drop = True
        if drop:
            continue
        new_bar = Bar(bar.date, *new_vals)
        repaired.append(new_bar)
        prev = new_bar
    return Series(symbol=series.symbol, bars=repaired), log


def align(series: Series, daily) -> tuple[AlignedDataset, int]:
    """Join daily sentiment onto the series' trading days; days without a
    sentiment entry get 0. Returns the dataset and the count of sentiment
    entries dated outside the bar range (ignored)."""
    by_date = {d.date: d.compound for d in daily}
    bar_dates = set(series.dates)
    ignored = sum(1 for d in daily if d.date not in bar_dates)
    sentiment = np.array([by_date.get(d, 0.0) for d in series.dates])
    features = np.array([[float(v) for v in b.values()] for b in series.bars])
    return AlignedDataset(series.symbol, list(series.dates), features, sentiment), ignored


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
                   targets=features[window_length:],
                   dates=aligned.dates[window_length:])


def split_boundary(total: int, policy: str) -> int:
    if policy == "fraction_90_10":
        boundary = int(np.floor(0.9 * total))
    elif policy == "fraction_70_30":
        boundary = int(np.floor(0.7 * total))
    elif policy == "holdout_last_20":
        boundary = total - HOLDOUT_SIZE
    else:
        raise DataError(f"unknown split policy {policy!r}")
    if boundary <= 0 or boundary >= total:
        raise DataError(f"split {policy} on {total} items leaves an empty partition")
    return boundary


def read_utf8(path) -> str:
    """A file's UTF-8 text; other bytes, or a path that cannot be read (a
    directory, say), are a DataError naming the path."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (invalid byte at offset {e.start})") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read ({e.strerror or e})") from None


def utf8_lines(path):
    """The lines of a UTF-8 file, read as open(path, newline="") reads them,
    without holding the whole file; errors raise as in read_utf8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from fh
    except (UnicodeDecodeError, OSError):
        read_utf8(path)  # raises the DataError that names the path
        raise


def write_atomic(path, text: str):
    """Write text to a temporary file next to `path` (creating its directory),
    then rename it over `path`: readers see the old or the new content, never
    a part of it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def finite_floats(values, what) -> np.ndarray:
    """`values` read back from JSON, as a float array. Anything but numbers
    (a string, null or a bool) or a non-finite number (NaN, Infinity, or a
    literal such as 1e400 that overflows) is a DataError naming `what`."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise DataError(f"{what} must be finite numbers")
    return arr.astype(float, copy=False)


def save_aligned(aligned: AlignedDataset, path):
    write_atomic(path, json.dumps(aligned.to_dict(), sort_keys=True))


def load_aligned(path) -> AlignedDataset:
    d = json.loads(read_utf8(path))
    if not isinstance(d, dict):
        raise DataError(f"{path}: corrupt aligned dataset: not a JSON object")
    return AlignedDataset.from_dict(d)
